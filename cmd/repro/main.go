// Command repro regenerates every table and figure of the paper's
// evaluation and writes ASCII renderings (and CSV curves for the
// figure sweeps) to stdout or an output directory.
//
// The experiments run through the concurrent engine by default: every
// workload is profiled and swept exactly once, shared across all
// dependent tables and figures, with independent experiments scheduled
// in parallel. -serial falls back to one-at-a-time dependency order.
//
// With -cache-dir every expensive artefact — dataset content,
// 45-metric profiles, Fig. 6-9 sweep curves, and the rendered output
// of each table and figure — persists in a content-keyed store under
// that directory, so a second run warm-starts and recomputes nothing
// (verify with -stats: zero trace passes, zero profiling runs, zero
// dataset generations, zero unit renders) while producing
// byte-identical output. -store-url points the same store at a
// cmd/artifactd server instead (or additionally: with both flags the
// disk tier fronts the server and remote hits warm it), which is how
// shards on different machines share one cache. -shard i/n runs only
// the i-th of n round-robin partitions of the selected items; n
// processes sharing a store — a -cache-dir or an artifactd URL —
// split a run and their merged -out files are byte-identical to a
// single full run. -gc bounds the -cache-dir by size and/or entry age
// (LRU sweep) after the run.
//
// -store-token (default $REPRO_STORE_TOKEN) authenticates against an
// artifactd started with -token. -block tunes the trace-replay block
// size (instructions per delivered batch); every value renders
// byte-identical output — the block pipeline only changes how fast the
// caches replay the stream.
//
// Usage:
//
//	repro [-quick] [-serial] [-parallel N] [-block N] [-timing] [-stats]
//	      [-cache-dir DIR] [-store-url URL] [-store-token T] [-gc SPEC]
//	      [-shard i/n] [-out DIR] [item ...]
//	repro [-quick] [-stats] [-cache-dir DIR] ... -scenario FILE
//
// Items: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6
// fig7 fig8 fig9 reduction stack. Default: all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/artifact"
	"repro/internal/artifact/httpstore"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced instruction budgets")
	outDir := flag.String("out", "", "also write per-item files to this directory")
	serial := flag.Bool("serial", false, "run experiments one at a time in dependency order")
	parallel := flag.Int("parallel", 0, "bound concurrency: experiments at once and workers within each (0 = GOMAXPROCS)")
	timing := flag.Bool("timing", false, "print the per-experiment timing table to stderr")
	cacheDir := flag.String("cache-dir", "", "persist artifacts (datasets, profiles, sweep curves, rendered units) under this directory and warm-start from it")
	storeURL := flag.String("store-url", "", "share artifacts through the artifactd server at this URL (combine with -cache-dir for a local tier in front)")
	storeToken := flag.String("store-token", "", "bearer token for a -token'd artifactd server (default $REPRO_STORE_TOKEN)")
	gcSpec := flag.String("gc", "", `after the run, LRU-sweep the -cache-dir down to this bound: a size, an age, or both ("4GB", "168h", "4GB,168h")`)
	shardSpec := flag.String("shard", "", "run only shard i of n visible items, as i/n (0-based); cooperating shards share a store and merge byte-identically")
	stats := flag.Bool("stats", false, "print artifact-store and recomputation probes to stderr")
	block := flag.Int("block", 0, "trace-replay block size in instructions (0 = default); output is byte-identical for every size")
	scenarioFile := flag.String("scenario", "", `run one ad-hoc scenario spec (JSON file, "-" for stdin) instead of paper items; the rendered bytes go to stdout`)
	memQuota := flag.String("mem-quota", "", `bound the in-process artifact cache: size, idle age and/or kind=size, comma-separated ("256MB", "256MB,scenario-render=64MB")`)
	flag.Parse()

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}

	var sel []string
	if args := flag.Args(); len(args) > 0 {
		known := map[string]bool{}
		for _, name := range experiments.VisibleUnitNames() {
			known[name] = true
		}
		for _, a := range args {
			item := strings.ToLower(a)
			if !known[item] {
				fatal(fmt.Errorf("unknown item %q (known: %s)",
					a, strings.Join(experiments.VisibleUnitNames(), " ")))
			}
			sel = append(sel, item)
		}
	}

	sweep, err := artifact.GCSweeper(*cacheDir, *gcSpec)
	if err != nil {
		fatal(err)
	}

	sess := experiments.NewSession(opt)
	sess.Parallelism = *parallel
	sess.BlockSize = *block
	if *cacheDir != "" || *storeURL != "" {
		st, err := httpstore.OpenStore(*cacheDir, *storeURL, *storeToken)
		if err != nil {
			fatal(err)
		}
		sess.Store = st
		datagen.SetStore(st)
	}
	if *memQuota != "" {
		q, err := artifact.ParseQuotaSpec(*memQuota)
		if err != nil {
			fatal(err)
		}
		sess.ArtifactStore().SetMemQuota(q)
	}
	if *scenarioFile != "" {
		// Scenario mode: canonicalize, compute (or fetch warm) and
		// write exactly the rendered bytes — the same bytes reprod
		// serves for the same spec against the same store, which the
		// serving CI job diffs.
		if err := scenarioConflict(sel, *outDir, *shardSpec); err != nil {
			fatal(err)
		}
		var raw []byte
		if *scenarioFile == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*scenarioFile)
		}
		if err != nil {
			fatal(err)
		}
		var spec experiments.Scenario
		if err := json.Unmarshal(raw, &spec); err != nil {
			fatal(fmt.Errorf("scenario %s: %w", *scenarioFile, err))
		}
		if err := experiments.RenderScenario(sess, spec, os.Stdout); err != nil {
			fatal(err)
		}
		if *stats {
			printStats(sess)
		}
		if sweep != nil {
			res, err := sweep()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "repro: gc: %s\n", res)
		}
		return
	}

	e := &experiments.Engine{
		Session:     sess,
		Parallelism: *parallel,
		Select:      sel,
	}
	if *shardSpec != "" {
		i, n, err := experiments.ParseShard(*shardSpec)
		if err != nil {
			fatal(err)
		}
		e.Shard, e.ShardCount = i, n
	}
	var results []experiments.UnitResult
	if *serial {
		results, err = e.RunSerial()
	} else {
		results, err = e.Run()
	}
	if err != nil {
		fatal(err)
	}

	out := func(name string) (io.Writer, func()) {
		if *outDir == "" {
			fmt.Printf("\n")
			return os.Stdout, func() {}
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*outDir, name+".txt"))
		if err != nil {
			fatal(err)
		}
		return io.MultiWriter(os.Stdout, f), func() { f.Close() }
	}

	failed := false
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", r.Unit.Name, r.Err)
			failed = true
			continue
		}
		if r.Unit.Hidden || r.Artifact == nil {
			continue
		}
		w, done := out(r.Unit.Name)
		r.Artifact.Render(w)
		done()
	}
	if *timing {
		t := experiments.TimingTable(results)
		t.Render(os.Stderr)
	}
	if *stats {
		printStats(sess)
	}
	if sweep != nil {
		res, err := sweep()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "repro: gc: %s\n", res)
	}
	if failed {
		os.Exit(1)
	}
}

// scenarioConflict rejects the flags -scenario would otherwise ignore:
// the scenario renders once to stdout, so item selection, per-item
// -out files and -shard partitions have nothing to act on.
func scenarioConflict(items []string, outDir, shard string) error {
	switch {
	case len(items) > 0:
		return fmt.Errorf("-scenario and item selection are mutually exclusive")
	case outDir != "":
		return fmt.Errorf("-scenario writes to stdout; -out does not apply")
	case shard != "":
		return fmt.Errorf("-scenario runs one scenario whole; -shard does not apply")
	}
	return nil
}

func printStats(sess *experiments.Session) {
	ss := sess.ArtifactStore().Stats()
	fmt.Fprintf(os.Stderr, "repro: trace passes: %d; profile runs: %d; dataset generations: %d; unit renders: %d\n",
		sess.TracePasses(), sess.ProfileRuns(), datagen.Generations(), sess.Renders())
	fmt.Fprintf(os.Stderr, "repro: store: %d fills, %d memory hits, %d backend hits, %d backend discards, %d prefetched\n",
		ss.Fills, ss.MemHits, ss.BackendHits, ss.BackendDiscards, ss.Prefetched)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
