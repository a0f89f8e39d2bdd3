package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

// sweep_multi: an ad-hoc multi-geometry cache sweep at the full
// default sweep budget. A cycle is one cold experiments.RunScenario on
// a fresh in-memory store, then sweepWarmPerCycle renamed repeats: the
// same scenario under a new name, from a fresh Session on the same
// store, so every sweep artefact is warm and only the rendering runs.
// Datasets live in a separate store that set-up warms. The seed
// permutes the spec's groups and associativities (Canonical must fold
// every order into one key and one rendering) and picks the names.
const sweepWarmPerCycle = 50

// sweepSetups is how many times set-up is repeated to report its
// median.
const sweepSetups = 5

// sweepWarmBudget is the instruction budget of set-up's dataset
// warm-up pass: enough for every kernel to bind its datasets.
const sweepWarmBudget = 2000

func sweepSpec() experiments.Scenario {
	return experiments.Scenario{
		Groups:  []string{"reps17", "hadoop", "parsec", "mpi"},
		WaysSet: []int{1, 2, 4, 8, 16},
		Views:   []string{"inst", "data", "unified"},
	}
}

// shuffledSpec is sweepSpec with its lists in a seed-chosen order.
func shuffledSpec(r *run) experiments.Scenario {
	sc := sweepSpec()
	r.rng.Shuffle(len(sc.Groups), func(i, j int) { sc.Groups[i], sc.Groups[j] = sc.Groups[j], sc.Groups[i] })
	r.rng.Shuffle(len(sc.WaysSet), func(i, j int) { sc.WaysSet[i], sc.WaysSet[j] = sc.WaysSet[j], sc.WaysSet[i] })
	r.rng.Shuffle(len(sc.Views), func(i, j int) { sc.Views[i], sc.Views[j] = sc.Views[j], sc.Views[i] })
	return sc
}

// warmSweepDatasets is sweep_multi's set-up: a fresh dataset store,
// filled by a throwaway pass of the scenario at a tiny budget.
func warmSweepDatasets() error {
	datagen.SetStore(artifact.New())
	sess := experiments.NewSession(experiments.Default())
	spec := sweepSpec()
	spec.Budget = sweepWarmBudget
	_, err := experiments.RunScenario(sess, spec)
	return err
}

// renamed is the rendering a renamed repeat must produce: the cold
// bytes with the default title's name replaced.
func renamed(cold []byte, name string) []byte {
	return bytes.ReplaceAll(cold, []byte("Scenario ad-hoc:"), []byte("Scenario "+name+":"))
}

func sweepMulti(r *run) (map[string]metric, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	defer datagen.SetStore(nil)
	var s samples
	for i := 0; i < sweepSetups; i++ {
		d, err := timed(warmSweepDatasets)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, d)
	}

	start := time.Now()
	for cycle := 0; cycle == 0 || anotherCycle(start, cycle, r.seconds); cycle++ {
		st := artifact.New()
		sess := experiments.NewSession(experiments.Default())
		sess.Store = st
		spec := shuffledSpec(r)
		var cold []byte
		runtime.GC()
		d, err := timed(func() (err error) {
			cold, err = experiments.RunScenario(sess, spec)
			return err
		})
		if err == nil {
			err = checkDigest("sweep_multi scenario", cold, ref.SweepMulti)
		}
		r.tally.record(err)
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, d)

		runtime.GC()
		for i := 0; i < sweepWarmPerCycle; i++ {
			spec := spec
			spec.Name = fmt.Sprintf("s%d-c%d-r%d", r.seed, cycle, r.rng.Intn(1<<30))
			var warm []byte
			d, err := timed(func() (err error) {
				ws := experiments.NewSession(experiments.Default())
				ws.Store = st
				warm, err = experiments.RunScenario(ws, spec)
				return err
			})
			if err == nil {
				err = checkEqual("renamed repeat", warm, renamed(cold, spec.Name))
			}
			r.tally.record(err)
			if err == nil {
				s.warm = append(s.warm, d)
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	s.rssMB = rss
	return s.metrics(r.notes), nil
}

// sweepDigest renders the sweep_multi scenario cold.
func sweepDigest() (string, error) {
	prev := datagen.SetStore(artifact.New())
	defer datagen.SetStore(prev)
	b, err := experiments.RunScenario(experiments.NewSession(experiments.Default()), sweepSpec())
	if err != nil {
		return "", err
	}
	return digest(b), nil
}
