// Command perfbench is the repository's benchmark: one steady,
// seeded measurement of the repro pipeline, end to end (--trace 0) and
// layer by layer (--trace 1).
//
//	perfbench --workload paper_quick --seed 1 --seconds 55 --trace 0
//	perfbench compare RESULTS_A RESULTS_B
//	perfbench digests
//
// A run prints its metrics as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics,
// and writes a fuller result file (machine class, sample counts, the
// layer map, and for traced runs the spans) under --out. The
// workloads, metrics and layer map are described in README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps the benchmark process at two threads of Go execution,
// so runs on bigger machines load the system the same way.
const maxProcs = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machineClass labels where a result was measured.
type machineClass struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
}

// resultFile is what a run writes under --out.
type resultFile struct {
	Workload string         `json:"workload"`
	Trace    int            `json:"trace"`
	Seconds  int            `json:"seconds"`
	Machine  machineClass   `json:"machine"`
	Summary  summary        `json:"summary"`
	Notes    map[string]any `json:"notes"`
	Layers   []layerRow     `json:"layer_map"`
	Started  time.Time      `json:"started"`
}

// tally counts attempted and failed operations. A wrong byte is a
// failure like an error is.
type tally struct {
	attempted, failed int
	firstErr          error
}

// record counts one operation; err != nil marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// run carries one benchmark run's settings and bookkeeping.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	workDir  string // scratch space, removed when the run ends
	outDir   string // where result and span files go
	rng      *rand.Rand
	tally    tally
	notes    map[string]any
}

// scratch returns a fresh, empty directory under the run's work dir.
func (r *run) scratch(name string) (string, error) {
	dir, err := os.MkdirTemp(r.workDir, name+"-")
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

type workload struct {
	name   string
	e2e    func(*run) (map[string]metric, error)
	traced func(*run) (map[string]metric, error)
}

var benchWorkloads = []workload{
	{"paper_quick", paperQuick, paperTraced},
	{"sweep_multi", sweepMulti, sweepTraced},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if err := compareMain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(2)
			}
			return
		case "digests":
			if err := digestsMain(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	name := flag.String("workload", "", "workload to run: paper_quick or sweep_multi")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 55, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: the serial traced run's per-layer metrics")
	workRoot := flag.String("work", ".bench_build/work", "scratch directory root")
	outDir := flag.String("out", ".bench_build/results", "directory result files are written to")
	flag.Parse()

	var wl *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			wl = &benchWorkloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(*workRoot, wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	r := &run{
		workload: wl.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workDir: workDir, outDir: *outDir,
		rng:   rand.New(rand.NewSource(*seed)),
		notes: map[string]any{},
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	started := time.Now()
	fn := wl.e2e
	if *traceFlag == 1 {
		fn = wl.traced
	}
	metrics, err := fn(r)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if r.tally.firstErr != nil {
		r.notes["first_failure"] = r.tally.firstErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", r.tally.firstErr)
	}
	sum := summary{
		Correct:   r.tally.failed == 0 && r.tally.attempted > 0,
		Attempted: r.tally.attempted, Failed: r.tally.failed,
		Metrics: metrics,
	}
	res := resultFile{
		Workload: wl.name, Trace: *traceFlag, Seconds: *seconds,
		Machine: currentMachine(*seed), Summary: sum, Notes: r.notes,
		Layers: layerMap, Started: started,
	}
	if err := writeResult(*outDir, res); err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeResult(dir string, res resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s_trace%d_seed%d_%d.json", res.Workload, res.Trace, res.Machine.Seed, res.Started.UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func currentMachine(seed int64) machineClass {
	return machineClass{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
