package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeResults stores a bench2json file holding the given name/ns pairs
// and returns its path.
func writeResults(t *testing.T, pairs ...any) string {
	t.Helper()
	var env envelope
	for i := 0; i < len(pairs); i += 2 {
		env.Benchmarks = append(env.Benchmarks, result{Name: pairs[i].(string), Iterations: 3, NsPerOp: pairs[i+1].(float64)})
	}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func loadNames(t *testing.T, path string) (map[string]result, []string) {
	t.Helper()
	m, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return m, names
}

const multiGeoRatio = "BenchmarkSweepMultiGeometry/geoms-4<=2.0*BenchmarkSweepMultiGeometry/geoms-1"

// TestOneProcNamesKeepSubBenchmarkSuffixes pins 1-core runs, where go
// test appends no proc suffix: geoms-1 and geoms-4 stay two keys, so
// the ratio compares two benchmarks (and fails at 3x) instead of
// comparing one benchmark with itself.
func TestOneProcNamesKeepSubBenchmarkSuffixes(t *testing.T) {
	cur, names := loadNames(t, writeResults(t,
		"BenchmarkSweepFiguresSerial", 900.0,
		"BenchmarkSweepMultiGeometry/geoms-1", 100.0,
		"BenchmarkSweepMultiGeometry/geoms-4", 300.0,
	))
	want := []string{"BenchmarkSweepFiguresSerial", "BenchmarkSweepMultiGeometry/geoms-1", "BenchmarkSweepMultiGeometry/geoms-4"}
	if !slices.Equal(names, want) {
		t.Fatalf("names %v, want %v", names, want)
	}
	if checkRatio(multiGeoRatio, cur) {
		t.Error("geoms-4 at 3x geoms-1 passed a 2x ratio")
	}
}

// TestMultiProcNamesStripSharedSuffix pins 2-core runs, where every
// name ends in -2: the suffix goes, the ratio terms resolve, and the
// ratio passes or fails on the measured values.
func TestMultiProcNamesStripSharedSuffix(t *testing.T) {
	cur, names := loadNames(t, writeResults(t,
		"BenchmarkSweepFiguresSerial-2", 900.0,
		"BenchmarkSweepMultiGeometry/geoms-1-2", 100.0,
		"BenchmarkSweepMultiGeometry/geoms-4-2", 150.0,
	))
	want := []string{"BenchmarkSweepFiguresSerial", "BenchmarkSweepMultiGeometry/geoms-1", "BenchmarkSweepMultiGeometry/geoms-4"}
	if !slices.Equal(names, want) {
		t.Fatalf("names %v, want %v", names, want)
	}
	if !checkRatio(multiGeoRatio, cur) {
		t.Error("geoms-4 at 1.5x geoms-1 failed a 2x ratio (terms not found?)")
	}
	cur["BenchmarkSweepMultiGeometry/geoms-4"] = result{NsPerOp: 300}
	if checkRatio(multiGeoRatio, cur) {
		t.Error("geoms-4 at 3x geoms-1 passed a 2x ratio")
	}
}

// TestSubBenchmarkEndingInDigit pins a sub-benchmark whose own name
// ends in -N: on a 1-core run it keeps that suffix, and on a 2-core
// run only the shared proc suffix is stripped.
func TestSubBenchmarkEndingInDigit(t *testing.T) {
	_, names := loadNames(t, writeResults(t,
		"BenchmarkCache/size-64", 1.0,
		"BenchmarkSweepPassBlocked", 2.0,
	))
	if want := []string{"BenchmarkCache/size-64", "BenchmarkSweepPassBlocked"}; !slices.Equal(names, want) {
		t.Errorf("1-core names %v, want %v", names, want)
	}
	_, names = loadNames(t, writeResults(t,
		"BenchmarkCache/size-64-2", 1.0,
		"BenchmarkSweepPassBlocked-2", 2.0,
	))
	if want := []string{"BenchmarkCache/size-64", "BenchmarkSweepPassBlocked"}; !slices.Equal(names, want) {
		t.Errorf("2-core names %v, want %v", names, want)
	}
}
