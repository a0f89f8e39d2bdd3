package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/artifactd"
	"repro/internal/artifact/httpstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// The traced runs (--trace 1). Each times the workload's batch
// serially twice — untraced, then with spans at the boundaries the
// benchmark can wrap — and replays the batch's work layer by layer in
// between. Layers the workload does not call are measured by small
// off-path probes so that every per-layer metric exists on every
// workload; attribution counts only the on-path layers.

// fleetProbeBlocks is how many schedule blocks the in-process fleet
// probe replays.
const fleetProbeBlocks = 2

// distinct drops workloads whose content signature was seen before.
func distinct(lists ...[]workloads.Workload) []workloads.Workload {
	seen := map[string]bool{}
	var out []workloads.Workload
	for _, l := range lists {
		for _, w := range l {
			if sig := workloads.Signature(w); !seen[sig] {
				seen[sig] = true
				out = append(out, w)
			}
		}
	}
	return out
}

func hadoopReps() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range workloads.Representative17() {
		if w.Stack.Name == "Hadoop" {
			out = append(out, w)
		}
	}
	return out
}

func paperTraced(r *run) (map[string]metric, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	defer datagen.SetStore(nil)

	_, st, err := openPaperStore(r)
	if err != nil {
		return nil, err
	}
	untraced, err := timed(func() error {
		got, err := runPaper(st, nil, 1)
		if err == nil {
			err = checkPaper(got, ref.PaperQuick)
		}
		return err
	})
	r.tally.record(err)
	if err != nil {
		return nil, err
	}

	t := newTracedRun(r)
	// Replay: every profiling run, sweep pass and the reduction the
	// batch performs, over freshly built datasets.
	freshDatasets()
	opt := experiments.Quick()
	xeon, atom := machine.XeonE5645(), machine.AtomD510()
	var flat []workloads.Workload
	all := suites.All()
	for _, name := range suites.Names() {
		flat = append(flat, all[name]...)
	}
	type set struct {
		cfg    machine.Config
		list   []workloads.Workload
		budget int64
	}
	sets := []set{
		{xeon, workloads.Representative17(), opt.Budget},
		{xeon, workloads.MPI6(), opt.Budget},
		{atom, workloads.Representative17(), opt.Budget},
		{xeon, flat, opt.Budget},
		{xeon, workloads.Roster77(), opt.RosterBudget},
	}
	profiled := map[string]core.Profile{}
	var roster []core.Profile
	for i, s := range sets {
		for _, w := range s.list {
			id := fmt.Sprintf("%s|%s|%d", s.cfg.Name, workloads.Signature(w), s.budget)
			p, ok := profiled[id]
			if !ok {
				p = t.profile(s.cfg, w, s.budget)
				profiled[id] = p
			}
			if i == len(sets)-1 {
				roster = append(roster, p)
			}
		}
	}
	r.notes["replayed_profile_runs"] = len(profiled)
	geom := machine.SweepGeometry{SizesKB: machine.DefaultSweepSizesKB, Ways: machine.DefaultSweepWays}
	swept := distinct(hadoopReps(), suites.PARSEC(), workloads.MPI6())
	for _, w := range swept {
		if err := t.sweep(w, opt.SweepBudget, machine.DefaultSweepLineBytes, geom); err != nil {
			return nil, err
		}
	}
	r.notes["replayed_sweep_passes"] = len(swept)
	if err := t.reduce(roster, 17); err != nil {
		return nil, err
	}
	dir, err := r.scratch("paper-traced")
	if err != nil {
		return nil, err
	}
	spanned := func() (*artifact.Store, error) {
		disk, err := artifact.NewDiskBackend(dir)
		if err != nil {
			return nil, err
		}
		return artifact.NewWithBackend(&spanBackend{inner: disk, prefix: "artifact.disk", tr: t.tr}), nil
	}
	tst, err := spanned()
	if err != nil {
		return nil, err
	}
	datagen.SetStore(tst)
	var cold map[string][]byte
	traced, err := timed(func() (err error) {
		if cold, err = runPaper(tst, nil, 1); err == nil {
			err = checkPaper(cold, ref.PaperQuick)
		}
		return err
	})
	r.tally.record(err)
	if err != nil {
		return nil, err
	}
	// A warm regeneration through the spanned backend: the disk reads.
	wst, err := spanned()
	if err != nil {
		return nil, err
	}
	warm, err := runPaper(wst, nil, 1)
	if err == nil {
		err = checkSame("traced warm regeneration", warm, cold)
	}
	r.tally.record(err)

	// Rendering: the custom (unmemoized) unit set over the traced
	// batch's store renders every item from resident artefacts.
	sess := experiments.NewSession(opt)
	sess.Store = tst
	sess.Parallelism = 1
	t.tr.Do("experiments.render", func() {
		_, err = (&experiments.Engine{Session: sess, Units: experiments.Units(), Parallelism: 1}).Run()
	})
	if err != nil {
		return nil, err
	}
	if err := fleetLayers(t); err != nil {
		return nil, err
	}
	t.attribute("datagen.build", "trace.emit", "machine.new", "machine.model", "metrics.compute",
		"stackdist.sweep", "core.reduce", "experiments.render", "artifact.disk_put")
	return t.finish(untraced, traced)
}

func sweepTraced(r *run) (map[string]metric, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	defer datagen.SetStore(nil)
	if err := warmSweepDatasets(); err != nil {
		return nil, err
	}
	opt := experiments.Default()
	spec := shuffledSpec(r)
	batch := func(st *artifact.Store) ([]byte, error) {
		sess := experiments.NewSession(opt)
		sess.Store = st
		sess.Parallelism = 1
		b, err := experiments.RunScenario(sess, spec)
		if err == nil {
			err = checkDigest("sweep_multi scenario", b, ref.SweepMulti)
		}
		r.tally.record(err)
		return b, err
	}
	untraced, err := timed(func() error { _, err := batch(artifact.New()); return err })
	if err != nil {
		return nil, err
	}
	t := newTracedRun(r)
	var geoms []machine.SweepGeometry
	for _, ways := range sweepSpec().WaysSet {
		geoms = append(geoms, machine.SweepGeometry{SizesKB: machine.DefaultSweepSizesKB, Ways: ways})
	}
	list := distinct(workloads.Representative17(), hadoopReps(), suites.PARSEC(), workloads.MPI6())
	freshDatasets()
	for _, w := range list {
		if err := t.sweep(w, opt.SweepBudget, machine.DefaultSweepLineBytes, geoms...); err != nil {
			return nil, err
		}
	}
	r.notes["replayed_sweep_passes"] = len(list)
	// The replay left every dataset built, as set-up does for a batch.
	tst := artifact.New()
	var cold []byte
	var traced time.Duration
	t.tr.Do("batch", func() { traced, err = timed(func() (err error) { cold, err = batch(tst); return err }) })
	if err != nil {
		return nil, err
	}
	renamedSpec := spec
	renamedSpec.Name = "traced"
	var warm []byte
	t.tr.Do("experiments.render", func() {
		ws := experiments.NewSession(opt)
		ws.Store = tst
		warm, err = experiments.RunScenario(ws, renamedSpec)
	})
	if err == nil {
		err = checkEqual("traced renamed repeat", warm, renamed(cold, "traced"))
	}
	r.tally.record(err)
	canon, err := spec.Canonical(opt)
	if err != nil {
		return nil, err
	}
	key := experiments.ScenarioKey(canon)
	var lat []float64
	for i := 0; i < 200; i++ {
		var ok bool
		d, _ := timed(func() error { _, ok = artifact.Peek[[]byte](tst, key, nil); return nil })
		if !ok {
			r.tally.record(fmt.Errorf("sweep_multi rendering not resident in its store"))
			break
		}
		lat = append(lat, us(d))
	}
	t.vals["artifact.mem_get_us"] = median(lat)

	if err := t.machineProbe(list); err != nil {
		return nil, err
	}
	if err := t.diskProbe(map[string][]byte{"sweep_multi": cold}); err != nil {
		return nil, err
	}
	memGet := t.vals["artifact.mem_get_us"]
	if err := fleetLayers(t); err != nil {
		return nil, err
	}
	// The workload's own store answers for memory-tier reads.
	t.vals["artifact.mem_get_us"] = memGet
	t.attribute("trace.emit", "stackdist.sweep", "experiments.render")
	return t.finish(untraced, traced)
}

// fleetLayers stands up an in-process fleet — an artifactd handler
// and two serve.Server replicas on loopback, the same code the
// daemons run — primes the run's warm set, measures the store, handler
// and HTTP layers on it, and replays fleetProbeBlocks schedule blocks
// serially for the fleet counters.
func fleetLayers(t *tracedRun) error {
	r := t.r
	in, err := newFleetInputs(r)
	if err != nil {
		return err
	}
	dir, err := r.scratch("fleet-inproc")
	if err != nil {
		return err
	}
	ad, err := artifactd.New(dir)
	if err != nil {
		return err
	}
	art := httptest.NewServer(ad.Handler())
	defer art.Close()
	// Replica servers stop when fleetLayers returns; wg waits for them.
	var wg sync.WaitGroup
	defer wg.Wait()
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var srvs []*serve.Server
	for i, ln := range lns {
		st, err := httpstore.OpenStore("", art.URL, "")
		if err != nil {
			return err
		}
		srv, err := serve.New(serve.Config{Opt: experiments.Quick(), Store: st, Self: urls[i], Peers: urls})
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed once closed
		}()
		defer hs.Close()
		srvs = append(srvs, srv)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	primed, err := prime(urls, c, in.warm, ref)
	if err != nil {
		return err
	}

	// Warm answers: in-process handler against a loopback round trip.
	var handler, hop []float64
	for round := 0; round < 20; round++ {
		for _, rq := range in.warm {
			method := http.MethodGet
			if rq.body != nil {
				method = http.MethodPost
			}
			req := httptest.NewRequest(method, rq.path, bytes.NewReader(rq.body))
			rec := httptest.NewRecorder()
			id := t.tr.Do("serve.handler", func() { srvs[0].Handler().ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("in-process %s: status %d", rq.path, rec.Code)
			} else {
				err = checkEqual("in-process "+rq.key, rec.Body.Bytes(), primed[rq.key])
			}
			r.tally.record(err)
			handler = append(handler, us(t.tr.Spans()[id-1].Dur()))
			var b []byte
			id = t.tr.Do("serve.http_request", func() { b, err = fetch(c, urls[0], rq) })
			if err == nil {
				err = checkEqual("loopback "+rq.key, b, primed[rq.key])
			}
			r.tally.record(err)
			hop = append(hop, us(t.tr.Spans()[id-1].Dur()))
		}
	}
	t.vals["serve.handler_warm_us"] = median(handler)
	t.vals["serve.http_hop_us"] = median(hop) - median(handler)

	// Store tiers: memory peeks on a replica, raw HTTP gets and puts
	// against artifactd.
	keys := make([]artifact.Key, 0, len(in.warm))
	for _, u := range fleetUnits {
		keys = append(keys, experiments.UnitRenderKey(experiments.Quick(), u))
	}
	for _, sc := range in.primedSet {
		canon, err := sc.Canonical(experiments.Quick())
		if err != nil {
			return err
		}
		keys = append(keys, experiments.ScenarioKey(canon))
	}
	hc, err := httpstore.New(art.URL)
	if err != nil {
		return err
	}
	var memGet, httpGet, httpPut []float64
	for round := 0; round < 20; round++ {
		for _, k := range keys {
			var ok bool
			id := t.tr.Do("artifact.mem_get", func() { _, ok = artifact.Peek[[]byte](srvs[0].Store(), k, nil) })
			memGet = append(memGet, us(t.tr.Spans()[id-1].Dur()))
			var raw []byte
			var found bool
			id = t.tr.Do("artifact.http_get", func() { raw, found = hc.Get(k.ID()) })
			httpGet = append(httpGet, us(t.tr.Spans()[id-1].Dur()))
			if !ok || !found {
				r.tally.record(fmt.Errorf("primed key %s missing from a store tier", k.ID()))
				continue
			}
			id = t.tr.Do("artifact.http_put", func() { hc.Put(k.ID(), raw) })
			httpPut = append(httpPut, us(t.tr.Spans()[id-1].Dur()))
			r.tally.record(nil)
		}
	}
	t.vals["artifact.mem_get_us"] = median(memGet)
	t.vals["artifact.http_get_us"] = median(httpGet)
	t.vals["artifact.http_put_us"] = median(httpPut)

	// Serial schedule replay for the fleet counters.
	stats := func() (sum serve.Stats, backendHits int64) {
		for _, s := range srvs {
			st := s.Stats()
			sum.Computes += st.Computes
			sum.Proxied += st.Proxied
			sum.WarmHits += st.WarmHits
			sum.UnitRequests += st.UnitRequests
			sum.ScenarioRequests += st.ScenarioRequests
			backendHits += s.Store().Stats().BackendHits
		}
		return sum, backendHits
	}
	before, beforeBackend := stats()
	coldBytes := map[string][]byte{}
	for b := 0; b < fleetProbeBlocks; b++ {
		blk, err := in.block(r)
		if err != nil {
			return err
		}
		for _, rq := range blk {
			var body []byte
			t.tr.Do("fleet.request", func() { body, err = fetch(c, urls[rq.replica], rq) })
			if err == nil {
				if rq.cold {
					if prev, ok := coldBytes[rq.key]; ok {
						err = checkEqual(rq.key+" across replicas", body, prev)
					} else {
						coldBytes[rq.key] = body
					}
				} else {
					err = checkEqual(rq.key+" against its primed bytes", body, primed[rq.key])
				}
			}
			r.tally.record(err)
		}
	}
	after, afterBackend := stats()
	requests := float64((after.UnitRequests + after.ScenarioRequests) - (before.UnitRequests + before.ScenarioRequests))
	t.vals["serve.computes_per_cold_key"] = float64(after.Computes-before.Computes) / float64(len(coldBytes))
	t.vals["serve.proxied_frac"] = float64(after.Proxied-before.Proxied) / requests
	// Warm hits are answered by a replica's memory tier unless the
	// peek had to fetch from artifactd (a backend hit).
	memHits := (after.WarmHits - before.WarmHits) - (afterBackend - beforeBackend)
	t.vals["artifact.mem_hit_ratio"] = float64(memHits) / requests
	r.notes["fleet_replay_cold_keys"] = len(coldBytes)
	return nil
}
