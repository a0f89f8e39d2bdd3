package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// samples are one run's end-to-end measurements: per-set-up,
// per-cold-batch and per-warm-operation times. What a warm operation
// is depends on the workload (README.md).
type samples struct {
	setup   []time.Duration
	batches []time.Duration
	warm    []time.Duration
	rssMB   float64
}

// metrics turns the samples into the end-to-end metrics. The result
// file also gets the sample counts, and the warm median and the warm
// tail at the highest percentile that leaves ten samples beyond it.
// Neither is an end-to-end metric: on a shared host both moved by more
// than the 0.25 bound between runs of the same code (README.md).
func (s *samples) metrics(notes map[string]any) map[string]metric {
	f := func(ds []time.Duration, conv func(time.Duration) float64) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = conv(d)
		}
		return out
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	warm := f(s.warm, ms)
	notes["samples"] = map[string]int{"setup": len(s.setup), "batches": len(s.batches), "warm": len(warm)}
	warmNote := map[string]float64{"p50": percentile(warm, 50)}
	if p := tailPercentile(len(warm)); p > 0 {
		warmNote["tail_percentile"], warmNote["tail"] = p, percentile(warm, p)
	}
	notes["warm_ms"] = warmNote
	return map[string]metric{
		"setup_s":     {median(f(s.setup, sec)), "s"},
		"batch_s":     {median(f(s.batches, sec)), "s"},
		"peak_rss_mb": {s.rssMB, "MB"},
	}
}

// anotherCycle reports whether a workload that has run done cycles
// since start should run one more: while at least half of an average
// cycle still fits in the window.
func anotherCycle(start time.Time, done int, window time.Duration) bool {
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*done) < window
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// reference holds the committed digests of the deterministic outputs:
// every paper item at experiments.Quick() and the sweep_multi
// scenario's rendering. `perfbench digests` regenerates it.
//
//go:embed reference.json
var referenceJSON []byte

type referenceDigests struct {
	PaperQuick map[string]string `json:"paper_quick"`
	SweepMulti string            `json:"sweep_multi"`
}

func loadReference() (referenceDigests, error) {
	var ref referenceDigests
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest fails when b does not hash to want.
func checkDigest(what string, b []byte, want string) error {
	if got := digest(b); got != want {
		return fmt.Errorf("%s: digest %s, want %s", what, got[:12], short(want))
	}
	return nil
}

// checkEqual fails when got differs from want, naming the first
// differing byte.
func checkEqual(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: %d bytes differ from the expected %d at offset %d", what, len(got), len(want), i)
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// digestsMain prints freshly computed reference digests.
func digestsMain() error {
	paper, err := paperDigests()
	if err != nil {
		return err
	}
	sweep, err := sweepDigest()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(referenceDigests{PaperQuick: paper, SweepMulti: sweep}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}
