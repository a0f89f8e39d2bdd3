package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// replayCurves is the concrete-cache oracle: one machine.Sweep trace
// pass for one geometry, bypassing the session and its store.
func replayCurves(t *testing.T, w workloads.Workload, budget int64, sizes []int, ways, lineBytes int) machine.Curves {
	t.Helper()
	sw, err := machine.NewSweepSpec(sizes, ways, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Run(w, sw, budget)
	return sw.Curves()
}

// TestSweepEnginesByteIdentical is the session-level differential: the
// session's stack-distance fills must be bit-identical to the
// concrete-cache replay oracle for every geometry, one trace pass each.
func TestSweepEnginesByteIdentical(t *testing.T) {
	opt := tinyOptions()
	w := workloads.Representative17()[14] // H-WordCount
	cases := []struct {
		sizes      []int
		ways, line int
	}{
		{[]int{16, 64, 256}, 0, 0},
		{[]int{16, 64, 256}, 1, 0},
		{[]int{16, 64, 256}, 16, 0},
		{[]int{16, 32}, 2, 128},
	}
	sd := NewSession(opt)
	for _, c := range cases {
		got := sd.SweepCurvesSpec(w, opt.SweepBudget, c.sizes, c.ways, c.line)
		want := replayCurves(t, w, opt.SweepBudget, c.sizes, c.ways, c.line)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ways=%d line=%d: stackdist disagrees with replay\nstackdist %+v\nreplay    %+v", c.ways, c.line, got, want)
		}
	}
	if sd.TracePasses() != int64(len(cases)) {
		t.Errorf("session cost %d trace passes, want %d", sd.TracePasses(), len(cases))
	}
}

// TestSweepCurvesMultiOnePass pins the multi-geometry cost model: N
// cold associativities fill from exactly one trace pass, each under
// the same key a single-geometry request would use (so follow-up
// single requests are pure store hits), and each bit-identical to the
// replay oracle.
func TestSweepCurvesMultiOnePass(t *testing.T) {
	opt := tinyOptions()
	w := workloads.Representative17()[4] // S-WordCount
	sizes := []int{16, 64, 256, 1024}
	waysList := []int{1, 2, 8, 16}

	s := NewSession(opt)
	multi := s.SweepCurvesMulti(w, opt.SweepBudget, sizes, waysList, 0)
	if got := s.TracePasses(); got != 1 {
		t.Fatalf("multi-geometry fill cost %d trace passes, want 1", got)
	}
	for i, ways := range waysList {
		if want := replayCurves(t, w, opt.SweepBudget, sizes, ways, 0); !reflect.DeepEqual(multi[i], want) {
			t.Errorf("ways=%d: multi curves diverge from replay oracle", ways)
		}
		// Same keys: the single-geometry accessor must hit warm.
		if got := s.SweepCurvesSpec(w, opt.SweepBudget, sizes, ways, 0); !reflect.DeepEqual(got, multi[i]) {
			t.Errorf("ways=%d: single-geometry readback differs", ways)
		}
	}
	if got := s.TracePasses(); got != 1 {
		t.Fatalf("warm readbacks re-traced: %d passes", got)
	}
}

// TestScenarioWaysSetCanonical pins the multi-associativity keying
// contract: sorted dedup, singleton folding into the single-geometry
// form (defaults folding further to zero), and rejection of the
// malformed combinations.
func TestScenarioWaysSetCanonical(t *testing.T) {
	opt := tinyOptions()

	one, err := Scenario{Groups: []string{"mpi"}, WaysSet: []int{8}}.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Scenario{Groups: []string{"mpi"}}.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioKey(one).ID() != ScenarioKey(def).ID() {
		t.Error("ways_set [8] does not alias the default-geometry scenario")
	}

	multi, err := Scenario{Groups: []string{"mpi"}, WaysSet: []int{16, 2, 2, 8}}.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi.WaysSet, []int{2, 8, 16}) || multi.Ways != 0 {
		t.Errorf("ways_set not sorted/deduped: %+v", multi)
	}
	again, err := multi.Canonical(opt)
	if err != nil || ScenarioKey(again).ID() != ScenarioKey(multi).ID() {
		t.Fatalf("Canonical not idempotent over ways_set: %v", err)
	}

	bad := []Scenario{
		{Groups: []string{"mpi"}, Ways: 2, WaysSet: []int{4}},                   // both forms
		{Groups: []string{"mpi"}, WaysSet: []int{1, 2, 3, 4, 5, 6, 7, 8, 16}},   // over limit
		{Groups: []string{"mpi"}, WaysSet: []int{0}},                            // non-positive
		{Groups: []string{"mpi"}, WaysSet: []int{-2, 4}},                        // negative
		{Groups: []string{"mpi"}, WaysSet: []int{3}},                            // fractional sets at 16 KB
		{Groups: []string{"mpi"}, WaysSet: []int{2, 6}, SizesKB: []int{16, 32}}, // 6-way doesn't divide
	}
	for i, sc := range bad {
		if _, err := sc.Canonical(opt); err == nil {
			t.Errorf("case %d (%+v) passed validation", i, sc)
		}
	}
}

// TestScenarioWaysSetOnePassByteIdentical renders a
// multi-associativity scenario twice: once from the session's own
// stack-distance fills, which must price the whole geometry set at one
// trace pass, and once from a session whose store holds the replay
// oracle's curves under the same keys. The bytes must match exactly.
func TestScenarioWaysSetOnePassByteIdentical(t *testing.T) {
	opt := tinyOptions()
	spec := Scenario{
		Name:      "multigeo",
		Workloads: []string{"H-Grep"},
		SizesKB:   []int{16, 64, 256},
		WaysSet:   []int{1, 2, 8, 16},
		Views:     []string{"inst", "data"},
	}

	sd := NewSession(opt)
	got, err := RunScenario(sd, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sd.TracePasses() != 1 {
		t.Errorf("scenario cost %d trace passes, want 1", sd.TracePasses())
	}

	canon, err := spec.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	w := scenarioCatalogue()["H-Grep"]
	oracle := NewSession(opt)
	for _, ways := range canon.waysList() {
		curves := replayCurves(t, w, canon.Budget, canon.SizesKB, ways, canon.LineBytes)
		key := sweepCurvesKey(workloads.Signature(w), canon.Budget, canon.SizesKB, ways, canon.LineBytes)
		if _, err := artifact.Get(oracle.ArtifactStore(), key, func() (machine.Curves, error) { return curves, nil }); err != nil {
			t.Fatal(err)
		}
	}
	want, err := RunScenario(oracle, spec)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.TracePasses() != 0 {
		t.Errorf("oracle session re-traced %d times; its curves did not come from replay", oracle.TracePasses())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scenario bytes differ from the replay oracle:\nstackdist:\n%s\nreplay:\n%s", got, want)
	}
	if !bytes.Contains(got, []byte("16-way")) || !bytes.Contains(got, []byte("1-way")) {
		t.Error("rendered scenario missing per-geometry headings")
	}
}
