package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/sim/trace"
	"repro/internal/workloads"
)

// layerRow is one line of the layer → metric → workload map: which
// end-to-end metrics a per-layer metric should move, and on which
// workloads the layer is on the path (elsewhere the traced run
// measures it with a small off-path probe, which attribution skips).
// Warm reads move only the warm median in the result file, which is
// not an end-to-end metric. The serve and HTTP-store layers are on no
// workload's path: only the in-process fleet probe measures them.
type layerRow struct {
	Metric string   `json:"metric"`
	Unit   string   `json:"unit"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

var (
	both  = []string{"paper_quick", "sweep_multi"}
	paper = []string{"paper_quick"}
	batch = []string{"batch_s"}
)

var layerMap = []layerRow{
	{"datagen.build_s", "s", batch, paper},
	{"trace.emit_minst_per_s", "Minst/s", batch, both},
	{"stackdist.self_s", "s", batch, both},
	{"stackdist.minst_per_s", "Minst/s", batch, both},
	{"machine.new_us", "us", batch, paper},
	{"machine.model_self_s", "s", batch, paper},
	{"machine.minst_per_s", "Minst/s", batch, paper},
	{"metrics.compute_us", "us", batch, paper},
	{"core.reduce_ms", "ms", batch, paper},
	{"experiments.render_ms", "ms", batch, both},
	{"artifact.disk_get_us", "us", nil, paper},
	{"artifact.disk_put_us", "us", batch, paper},
	{"artifact.mem_get_us", "us", nil, []string{"sweep_multi"}},
	{"artifact.http_get_us", "us", nil, nil},
	{"artifact.http_put_us", "us", nil, nil},
	{"artifact.mem_hit_ratio", "ratio", nil, nil},
	{"serve.handler_warm_us", "us", nil, nil},
	{"serve.http_hop_us", "us", nil, nil},
	{"serve.computes_per_cold_key", "count", nil, nil},
	{"serve.proxied_frac", "ratio", nil, nil},
	{"unattributed_frac", "ratio", nil, both},
	{"trace_overhead_frac", "ratio", nil, both},
}

// unattributedTolerance is how much of the serial batch time the
// traced replay may leave unattributed, either way, before the traced
// run is marked incorrect.
const unattributedTolerance = 0.25

// probeBudget is the instruction budget of off-path probes.
const probeBudget = 20_000

// tracedRun replays one workload's work serially through each layer's
// public functions, a span around every call.
type tracedRun struct {
	r      *run
	tr     *Tracer
	insts  map[string]uint64 // instructions through each layer
	built  map[string]bool   // workloads whose datasets are bound
	onPath map[string]bool   // span names attribution counts
	vals   map[string]float64
}

func newTracedRun(r *run) *tracedRun {
	return &tracedRun{
		r: r, tr: newTracer(),
		insts: map[string]uint64{}, built: map[string]bool{},
		onPath: map[string]bool{}, vals: map[string]float64{},
	}
}

// freshDatasets points datagen at an empty store, so the replay's
// datagen spans measure real builds.
func freshDatasets() {
	datagen.SetStore(artifact.New())
}

// datagen binds w's datasets (building any not yet built) by running
// w for a single instruction.
func (t *tracedRun) datagen(w workloads.Workload) {
	if t.built[w.ID] {
		return
	}
	t.built[w.ID] = true
	t.tr.Do("datagen.build", func() { workloads.RunBlock(w, &trace.CountProbe{}, 1, 0) })
}

// emission runs w's trace into a trace.CountProbe: the emission cost
// the fused layers are charged with.
func (t *tracedRun) emission(w workloads.Workload, budget int64) int {
	var p trace.CountProbe
	id := t.tr.Do("trace.emit", func() { workloads.RunBlock(w, &p, budget, 0) })
	t.insts["trace.emit"] += p.Total
	return id
}

// profile is one profiling run: machine construction, the machine
// model fused with emission, and the metric vector.
func (t *tracedRun) profile(cfg machine.Config, w workloads.Workload, budget int64) core.Profile {
	t.datagen(w)
	emit := t.emission(w, budget)
	var m *machine.Machine
	t.tr.Do("machine.new", func() { m = machine.New(cfg) })
	var res *workloads.Result
	model := t.tr.Do("machine.model", func() {
		res = workloads.RunBlock(w, m, budget, 0)
		m.Finish()
	})
	t.tr.Adopt(emit, model)
	t.insts["machine.model"] += res.Insts
	var v metrics.Vector
	t.tr.Do("metrics.compute", func() { v = metrics.Compute(m) })
	return core.Profile{Workload: w, Vector: v, Run: res}
}

// sweep is one stack-distance pass over w, fused with emission.
func (t *tracedRun) sweep(w workloads.Workload, budget int64, line int, geoms ...machine.SweepGeometry) error {
	t.datagen(w)
	emit := t.emission(w, budget)
	var err error
	var res *workloads.Result
	id := t.tr.Do("stackdist.sweep", func() {
		var sw *machine.StackSweep
		if sw, err = machine.NewStackSweep(line, geoms...); err != nil {
			return
		}
		sw.Parallelism = 1
		res = workloads.RunBlock(w, sw, budget, 0)
	})
	if err != nil {
		return err
	}
	t.tr.Adopt(emit, id)
	t.insts["stackdist.sweep"] += res.Insts
	return nil
}

// reduce is the §3 reduction over profiles.
func (t *tracedRun) reduce(profiles []core.Profile, k int) error {
	var err error
	t.tr.Do("core.reduce", func() {
		a := &core.Analyzer{ExplainTarget: 0.9, Seed: 0x5EED}
		_, err = a.Reduce(profiles, k)
	})
	return err
}

// machineProbe profiles list at probeBudget and reduces the profiles:
// the off-path measurement of the machine, metrics and core layers.
func (t *tracedRun) machineProbe(list []workloads.Workload) error {
	profs := make([]core.Profile, 0, len(list))
	for _, w := range list {
		profs = append(profs, t.profile(machine.XeonE5645(), w, probeBudget))
	}
	return t.reduce(profs, max(2, len(profs)/2))
}

// spanBackend wraps a persistence backend with spans around Get and
// Put, named prefix+"_get" and prefix+"_put".
type spanBackend struct {
	inner  artifact.Backend
	prefix string
	tr     *Tracer
}

func (b *spanBackend) Get(id string) ([]byte, bool) {
	start := time.Now()
	v, ok := b.inner.Get(id)
	b.record("_get", start)
	return v, ok
}

func (b *spanBackend) Put(id string, data []byte) {
	start := time.Now()
	b.inner.Put(id, data)
	b.record("_put", start)
}

func (b *spanBackend) record(suffix string, start time.Time) {
	end := time.Now()
	b.tr.Add(Span{Name: b.prefix + suffix, Start: start.Sub(b.tr.t0), End: end.Sub(b.tr.t0)})
}

// diskProbe writes each output into a fresh disk store and reads it
// back through a second store over the same directory.
func (t *tracedRun) diskProbe(outputs map[string][]byte) error {
	dir, err := t.r.scratch("disk")
	if err != nil {
		return err
	}
	open := func() (*artifact.Store, error) {
		disk, err := artifact.NewDiskBackend(dir)
		if err != nil {
			return nil, err
		}
		return artifact.NewWithBackend(&spanBackend{inner: disk, prefix: "artifact.disk", tr: t.tr}), nil
	}
	w, err := open()
	if err != nil {
		return err
	}
	for name, b := range outputs {
		key := artifact.KeyOf("perfbench-probe", name)
		if _, err := artifact.Get(w, key, func() ([]byte, error) { return b, nil }); err != nil {
			return err
		}
	}
	rd, err := open()
	if err != nil {
		return err
	}
	for name, want := range outputs {
		got, ok := artifact.Peek[[]byte](rd, artifact.KeyOf("perfbench-probe", name), nil)
		if !ok {
			return fmt.Errorf("disk probe: %s not read back", name)
		}
		if err := checkEqual("disk probe "+name, got, want); err != nil {
			return err
		}
	}
	return nil
}

// finish computes every per-layer metric from the spans and counters,
// given the untraced and traced serial batch times, and writes the
// spans next to the result files.
func (t *tracedRun) finish(untraced, traced time.Duration) (map[string]metric, error) {
	spans := t.tr.Spans()
	self := layerTotals(spans)
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], us(s.Dur()))
	}
	rate := func(layer string) float64 {
		sec := self[layer].Seconds()
		if sec == 0 {
			return 0
		}
		return float64(t.insts[layer]) / sec / 1e6
	}
	v := map[string]float64{
		"datagen.build_s":        self["datagen.build"].Seconds(),
		"trace.emit_minst_per_s": rate("trace.emit"),
		"stackdist.self_s":       self["stackdist.sweep"].Seconds(),
		"stackdist.minst_per_s":  rate("stackdist.sweep"),
		"machine.new_us":         median(durs["machine.new"]),
		"machine.model_self_s":   self["machine.model"].Seconds(),
		"machine.minst_per_s":    rate("machine.model"),
		"metrics.compute_us":     median(durs["metrics.compute"]),
		"core.reduce_ms":         self["core.reduce"].Seconds() * 1e3,
		"experiments.render_ms":  self["experiments.render"].Seconds() * 1e3,
		"artifact.disk_get_us":   median(durs["artifact.disk_get"]),
		"artifact.disk_put_us":   median(durs["artifact.disk_put"]),
	}
	for k, x := range t.vals {
		v[k] = x
	}
	var attributed time.Duration
	for name := range t.onPath {
		attributed += self[name]
	}
	// The batch time attribution is judged against is the mean of the
	// untraced and traced batches, which bracket the replay in time, so
	// a steady drift in machine speed during the run cancels out.
	batch := (untraced + traced) / 2
	v["unattributed_frac"] = 1 - attributed.Seconds()/batch.Seconds()
	v["trace_overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	t.r.notes["serial_batch_s"] = map[string]float64{"untraced": untraced.Seconds(), "traced": traced.Seconds()}
	selfSec := map[string]float64{}
	for k, d := range self {
		selfSec[k] = d.Seconds()
	}
	t.r.notes["layer_self_s"] = selfSec
	t.r.notes["on_path"] = t.onPath
	t.r.notes["unattributed_tolerance"] = unattributedTolerance

	var attribErr error
	if u := v["unattributed_frac"]; u > unattributedTolerance || u < -unattributedTolerance {
		attribErr = fmt.Errorf("unattributed_frac %.3f outside ±%.2f", u, unattributedTolerance)
	}
	t.r.tally.record(attribErr)

	out := make(map[string]metric, len(layerMap))
	for _, row := range layerMap {
		x, ok := v[row.Metric]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", row.Metric)
		}
		out[row.Metric] = metric{x, row.Unit}
	}
	path := filepath.Join(t.r.outDir,
		fmt.Sprintf("%s_spans_seed%d_%d.json", t.r.workload, t.r.seed, time.Now().UnixNano()))
	if err := t.tr.WriteJSON(path); err != nil {
		return nil, err
	}
	t.r.notes["spans_file"] = path
	return out, nil
}

// attribute marks span names as on the workload's blocking path.
func (t *tracedRun) attribute(names ...string) {
	for _, n := range names {
		t.onPath[n] = true
	}
}
