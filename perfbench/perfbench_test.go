package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// TestQuartilesMatchPythonStatistics pins quartiles to
// statistics.quantiles(xs, n=4), the rule the run-to-run spread is
// judged by.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{1, 2, 3}, 1, 3},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMannWhitney(t *testing.T) {
	a := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 9.5}
	p, bLower := mannWhitney(a, b)
	if bLower != 1 || p > 0.001 {
		t.Errorf("disjoint sets: p=%v bLower=%v, want p<0.001 and bLower=1", p, bLower)
	}
	p, bLower = mannWhitney(a, a)
	if bLower != 0.5 || p < 0.9 {
		t.Errorf("identical sets: p=%v bLower=%v, want p≈1 and bLower=0.5", p, bLower)
	}
}

func span(id, parent int, name string, start, end int, detached bool) Span {
	return Span{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start), End: time.Duration(end), Detached: detached}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "batch", 0, 100, false),
		// Overlapping children cover [10, 40) once: 30.
		span(2, 1, "a", 10, 30, false),
		span(3, 1, "b", 20, 40, false),
		// A child sticking out of its parent counts only inside it.
		span(4, 1, "c", 90, 120, false),
		span(5, 3, "b.inner", 25, 35, false),
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 30 - 10, 2: 20, 3: 20 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestSelfTimeSubtractsDetachedEmission(t *testing.T) {
	// A machine-model call fused with emission, and the CountProbe
	// emission measured separately before it: the model's self time is
	// the call minus the whole emission.
	spans := []Span{
		span(1, 3, "trace.emit", 0, 40, true),
		span(2, 0, "machine.new", 40, 45, false),
		span(3, 0, "machine.model", 45, 145, false),
	}
	self := layerTotals(spans)
	if self["machine.model"] != 60 || self["trace.emit"] != 40 || self["machine.new"] != 5 {
		t.Errorf("self times %v, want model 60, emit 40, new 5", self)
	}
}

func TestTracerRecordsParentsAndAdoption(t *testing.T) {
	tr := newTracer()
	emit := tr.Do("trace.emit", func() {})
	model := tr.Do("machine.model", func() {})
	tr.Adopt(emit, model)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Parent != model || !spans[0].Detached || spans[1].Parent != 0 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].Start < spans[0].End {
		t.Errorf("second span starts before the first ended: %+v", spans)
	}
}

func ten(base float64, step float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = base + step*float64(i)
	}
	return out
}

func TestVerdicts(t *testing.T) {
	parent := ten(100, 1) // 100..109, spread ~5%
	for _, tc := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"every run faster", ten(80, 1), true, 0.1, verdictBetter},
		{"same runs", ten(100, 1), true, 0.1, verdictUnchanged},
		{"slightly slower within bound", ten(103, 1), true, 0.1, verdictUnchanged},
		{"slower past bound", ten(120, 1), true, 0.1, verdictWorse},
		{"higher is better: throughput fell", ten(80, 1), false, 0.1, verdictWorse},
		{"higher is better: throughput rose", ten(120, 1), false, 0.1, verdictBetter},
		{"spread wider than bound", ten(60, 10), true, 0.1, verdictUnresolved},
		{"no bound, not separated", ten(100, 1), true, 0, verdictUnresolved},
		{"no bound, clearly worse", ten(150, 1), true, 0, verdictWorse},
	} {
		if got := verdict(parent, tc.change, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFlippedByteIsACountedFailure flips one byte of a paper item: it
// must surface as one failed operation.
func TestFlippedByteIsACountedFailure(t *testing.T) {
	good := []byte("Table 1: datasets\nwiki 64KB blocks\n")
	bad := append([]byte(nil), good...)
	bad[7] ^= 0x01

	var tl tally
	tl.record(checkDigest("table1", good, digest(good)))
	tl.record(checkDigest("table1", bad, digest(good)))
	tl.record(checkEqual("warm", good, good))
	tl.record(checkEqual("warm", bad, good))
	if tl.attempted != 4 || tl.failed != 2 || tl.firstErr == nil {
		t.Fatalf("tally %+v, want 4 attempted, 2 failed", tl)
	}

	cold := map[string][]byte{"table1": good}
	warm := map[string][]byte{"table1": bad}
	if checkSame("warm regeneration", warm, cold) == nil {
		t.Error("a warm item differing by one byte passed")
	}
	if err := checkPaper(cold, map[string]string{"table1": digest(bad)}); err == nil {
		t.Error("an item off its reference digest passed")
	}
}

func TestRenamedRepeatRewritesOnlyTitles(t *testing.T) {
	cold := []byte("Scenario ad-hoc: inst cache miss ratio\nknee = 128 KB\nScenario ad-hoc: data\n")
	want := "Scenario s1: inst cache miss ratio\nknee = 128 KB\nScenario s1: data\n"
	if got := string(renamed(cold, "s1")); got != want {
		t.Errorf("renamed = %q, want %q", got, want)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range spec.Workloads {
		if i < len(benchWorkloads) && benchWorkloads[i].name != w.Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	var s samples
	e2e := s.metrics(map[string]any{})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: printed %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if len(layerMap) != len(spec.PerLayer) {
		t.Errorf("%d per-layer metrics in the layer map, %d declared", len(layerMap), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerMap) && (layerMap[i].Metric != m.Name || layerMap[i].Unit != m.Unit) {
			t.Errorf("per-layer %d: map has %s (%s), BENCHMARK.json %s (%s)",
				i, layerMap[i].Metric, layerMap[i].Unit, m.Name, m.Unit)
		}
	}
}

func TestAnotherCycleFillsTheWindow(t *testing.T) {
	window := 10 * time.Second
	ago := func(s int) time.Time { return time.Now().Add(-time.Duration(s) * time.Second) }
	for _, tc := range []struct {
		name            string
		elapsed, cycles int
		want            bool
	}{
		{"half a cycle still fits", 4, 1, true},
		{"half a cycle does not fit", 8, 2, false},
		{"window over", 11, 5, false},
	} {
		if got := anotherCycle(ago(tc.elapsed), tc.cycles, window); got != tc.want {
			t.Errorf("%s: anotherCycle = %v, want %v", tc.name, got, tc.want)
		}
	}
}
