package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

// paper_quick: the researcher regenerating the paper. A cycle is one
// cold batch — experiments.Engine.Run over experiments.Quick() into a
// fresh on-disk store that datagen also fills — followed by
// paperWarmPerCycle warm regenerations, each from a fresh Session and
// a fresh Store over the same directory (a new process's view). The
// seed permutes the item list the batch is asked for; the output must
// not depend on it.
const paperWarmPerCycle = 50

// paperSetups is how many times set-up is repeated to report its
// median.
const paperSetups = 3

// paperSetup is paper_quick's set-up. A warm-up regeneration into a
// throwaway in-memory store, checked against the reference, warms the
// code, the heap and any set-up the program defers to first use; then
// openPaperStore gives the batch its cold store.
func paperSetup(r *run, ref referenceDigests) (string, *artifact.Store, error) {
	mem := artifact.New()
	datagen.SetStore(mem)
	got, err := runPaper(mem, nil, 0)
	if err == nil {
		err = checkPaper(got, ref.PaperQuick)
	}
	r.tally.record(err)
	if err != nil {
		return "", nil, err
	}
	return openPaperStore(r)
}

// openPaperStore opens a fresh store directory, a disk-backed store
// over it, and points datagen at that store — what `repro -quick
// -cache-dir` does before its first unit runs — and checks that the
// store holds none of the items, so the batch is cold.
func openPaperStore(r *run) (string, *artifact.Store, error) {
	dir, err := r.scratch("paper")
	if err != nil {
		return "", nil, err
	}
	st, err := artifact.NewDisk(dir)
	if err != nil {
		return "", nil, err
	}
	for _, u := range experiments.VisibleUnitNames() {
		if _, ok := artifact.Peek[[]byte](st, experiments.UnitRenderKey(experiments.Quick(), u), nil); ok {
			return "", nil, fmt.Errorf("fresh store %s already holds %s", dir, u)
		}
	}
	datagen.SetStore(st)
	return dir, st, nil
}

// runPaper regenerates the selected paper items (nil = all) over st,
// with parallelism bounding both concurrent items and the workers
// inside each (0 = GOMAXPROCS), and returns each visible item's
// rendered bytes.
func runPaper(st *artifact.Store, sel []string, parallelism int) (map[string][]byte, error) {
	sess := experiments.NewSession(experiments.Quick())
	sess.Store = st
	sess.Parallelism = parallelism
	eng := experiments.Engine{Session: sess, Select: sel, Parallelism: parallelism}
	results, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(results))
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("unit %s: %w", res.Unit.Name, res.Err)
		}
		if res.Unit.Hidden {
			continue
		}
		var buf bytes.Buffer
		res.Artifact.Render(&buf)
		out[res.Unit.Name] = buf.Bytes()
	}
	return out, nil
}

// checkPaper compares every item against the committed digests.
func checkPaper(got map[string][]byte, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("paper: %d items, want %d", len(got), len(want))
	}
	for name, d := range want {
		if err := checkDigest("paper item "+name, got[name], d); err != nil {
			return err
		}
	}
	return nil
}

// checkSame fails unless got holds exactly want's items and bytes.
func checkSame(what string, got, want map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d items, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if err := checkEqual(what+" "+name, got[name], w); err != nil {
			return err
		}
	}
	return nil
}

func shuffledUnits(r *run) []string {
	names := experiments.VisibleUnitNames()
	r.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

func paperQuick(r *run) (map[string]metric, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	defer datagen.SetStore(nil)
	var s samples
	// Set-up is repeated and its median reported; the last store
	// opened is the one the first batch fills.
	var dir string
	var st *artifact.Store
	for i := 0; i < paperSetups; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		d, err := timed(func() (err error) {
			dir, st, err = paperSetup(r, ref)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, d)
	}

	start := time.Now()
	for cycle := 0; cycle == 0 || anotherCycle(start, cycle, r.seconds); cycle++ {
		if cycle > 0 {
			if dir, st, err = openPaperStore(r); err != nil {
				return nil, err
			}
		}
		sel := shuffledUnits(r)
		var cold map[string][]byte
		runtime.GC()
		d, err := timed(func() (err error) {
			cold, err = runPaper(st, sel, 0)
			return err
		})
		if err == nil {
			err = checkPaper(cold, ref.PaperQuick)
		}
		r.tally.record(err)
		if err != nil {
			return nil, err // no populated store to read warm from
		}
		s.batches = append(s.batches, d)

		runtime.GC()
		for i := 0; i < paperWarmPerCycle; i++ {
			var warm map[string][]byte
			d, err := timed(func() error {
				wst, err := artifact.NewDisk(dir)
				if err != nil {
					return err
				}
				datagen.SetStore(wst)
				warm, err = runPaper(wst, nil, 0)
				return err
			})
			if err == nil {
				err = checkSame("warm regeneration", warm, cold)
			}
			r.tally.record(err)
			if err == nil {
				s.warm = append(s.warm, d)
			}
		}
		os.RemoveAll(dir)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	s.rssMB = rss
	return s.metrics(r.notes), nil
}

// paperDigests renders every paper item at experiments.Quick() over
// an in-memory store.
func paperDigests() (map[string]string, error) {
	st := artifact.New()
	prev := datagen.SetStore(st)
	defer datagen.SetStore(prev)
	items, err := runPaper(st, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(items))
	for name, b := range items {
		out[name] = digest(b)
	}
	return out, nil
}
