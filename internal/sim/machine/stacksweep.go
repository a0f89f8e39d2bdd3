package machine

import (
	"fmt"
	"maps"
	"runtime"
	"slices"

	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
	"repro/internal/sim/stackdist"
)

// SweepGeometry requests one miss-ratio curve from a StackSweep: the
// swept L1 capacities at one associativity. The line size is shared by
// the whole StackSweep (stack-distance accounting is exact across
// sizes and ways at a fixed line size; a different line size changes
// the access stream itself and needs its own pass).
type SweepGeometry struct {
	// SizesKB lists the evaluated capacities (0 ways selects the
	// default, as in NewSweepSpec).
	SizesKB []int
	Ways    int
}

// StackSweep is the single-pass sweep engine: instead of replaying the
// trace through one concrete cache per (size, view), it feeds the same
// packed streams into one stack-distance accumulator per distinct set
// count and view, then derives every requested geometry's miss ratios
// arithmetically from the reuse-depth histograms (stackdist.Stack).
// One trace pass therefore prices *all* geometries at the shared line
// size — the marginal cost of an extra geometry is at most one more
// set count to maintain, usually zero.
//
// It consumes exactly the streams Sweep does (the shared blockDecoder:
// I-line dedup, D-side run merging, unified interleaving) and its
// Curves are bit-identical to Sweep's for every geometry — Sweep
// remains the differential oracle proving that.
//
// Like Sweep it implements both trace.Probe (serial reference) and
// trace.BlockProbe (the hot path). On the block path each view's
// accumulators form one set-refinement chain in ascending set count: a
// set count whose divisor parent is also swept replays only the
// records the parent did not prove MRU (stackdist.Stack.AccessBlock)
// and folds the rest as depth-0 hits. The three view chains fan out
// across the shared replay pool.
type StackSweep struct {
	// Parallelism bounds the per-view chain fan-out of block replay,
	// as Sweep.Parallelism does for caches.
	Parallelism int

	// Cancel, when non-nil, makes InstBlock drain without accounting
	// once closed; the histograms are then truncated and must be
	// discarded.
	Cancel <-chan struct{}

	blockDecoder

	geoms     []SweepGeometry
	lineBytes int

	setCounts []int // ascending
	setIdx    map[int]int
	// parent[k] is the index of the largest smaller set count dividing
	// setCounts[k], or -1: the stack whose kept records k replays.
	parent []int

	// stacks[v][k] accumulates view v (viewInst, viewData, viewUnified)
	// at setCounts[k]; kept[v][k] holds the records it kept from the
	// current block, reused across blocks.
	stacks [3][]*stackdist.Stack
	kept   [3][][]cache.Rec
}

// The three sweep views, indexing StackSweep.stacks.
const (
	viewInst = iota
	viewData
	viewUnified
)

// NewStackSweep builds a single-pass sweep over any number of
// geometries sharing one line size. Ways and lineBytes of 0 select the
// paper defaults; validation matches NewSweepSpec exactly (invalid
// line sizes and non-dividing capacities are rejected, never rounded).
func NewStackSweep(lineBytes int, geoms ...SweepGeometry) (*StackSweep, error) {
	if len(geoms) == 0 {
		return nil, fmt.Errorf("machine: stack sweep with no geometries")
	}
	if lineBytes == 0 {
		lineBytes = DefaultSweepLineBytes
	}
	if lineBytes < 8 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("machine: sweep line size %d not a power of two >= 8", lineBytes)
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	s := &StackSweep{
		lineBytes:    lineBytes,
		blockDecoder: blockDecoder{lineShift: shift},
		setIdx:       map[int]int{},
	}
	depths := map[int]int{} // set count -> deepest associativity read at it
	for _, g := range geoms {
		if g.Ways == 0 {
			g.Ways = DefaultSweepWays
		}
		if g.Ways < 1 {
			return nil, fmt.Errorf("machine: sweep ways %d < 1", g.Ways)
		}
		for _, kb := range g.SizesKB {
			cfg := cache.Config{Name: "sweep", Size: kb << 10, Ways: g.Ways, LineSize: lineBytes, Latency: 1}
			if !cfg.Valid() {
				return nil, fmt.Errorf("machine: sweep size %d KB not divisible into %d-way sets of %d-byte lines",
					kb, g.Ways, lineBytes)
			}
			// Stacks only track as deep as the deepest reader of this
			// set count: a set count serving only a 1-way geometry keeps
			// a depth-1 stack (one compare per access), which is what
			// keeps many-geometry passes near-flat.
			sets := (kb << 10) / (g.Ways * lineBytes)
			depths[sets] = max(depths[sets], g.Ways)
		}
		s.geoms = append(s.geoms, g)
	}
	s.setCounts = slices.Sorted(maps.Keys(depths))
	for k, sets := range s.setCounts {
		s.setIdx[sets] = k
		s.parent = append(s.parent, -1)
		for p := k - 1; p >= 0; p-- {
			if sets%s.setCounts[p] == 0 {
				s.parent[k] = p
				break
			}
		}
		for v := range s.stacks {
			s.stacks[v] = append(s.stacks[v], stackdist.New(sets, depths[sets]))
		}
	}
	for v := range s.kept {
		s.kept[v] = make([][]cache.Rec, len(s.setCounts))
	}
	return s, nil
}

// Geometries returns the requested geometries in construction order
// (Ways resolved to the default where 0 was passed).
func (s *StackSweep) Geometries() []SweepGeometry { return s.geoms }

// Inst implements trace.Probe — the serial reference, accounting every
// access inline at every set count with the same I-line dedup
// Sweep.Inst applies (no set-refinement filter). Run merging is a
// block-path packing detail; the per-access and packed forms
// accumulate identical histograms (a merged repeat is a depth-0 hit by
// construction).
func (s *StackSweep) Inst(i *isa.Inst) {
	if line := i.PC >> s.lineShift; line != s.lastILine {
		s.lastILine = line
		for k := range s.setCounts {
			s.stacks[viewInst][k].Access(line, 0)
			s.stacks[viewUnified][k].Access(line, 0)
		}
	}
	if i.Op == isa.Load || i.Op == isa.Store {
		line := i.Addr >> s.lineShift
		for k := range s.setCounts {
			s.stacks[viewData][k].Access(line, 0)
			s.stacks[viewUnified][k].Access(line, 0)
		}
	}
}

// InstBlock implements trace.BlockProbe: decode once (shared with
// Sweep), then replay each view's stream down its set-refinement
// chain. Each chain — its stacks and kept buffers — is owned by
// exactly one worker and the streams are read-only during the fan-out
// of the 3 chains, so any schedule produces the same histograms.
func (s *StackSweep) InstBlock(block []isa.Inst) {
	if s.Cancel != nil {
		select {
		case <-s.Cancel:
			return // drain: the histograms are already condemned
		default:
		}
	}
	s.decode(block)
	streams := [3][]cache.Rec{viewInst: s.iRecs, viewData: s.dRecs, viewUnified: s.uRecs}

	par := s.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par == 1 {
		for v := range streams {
			s.replayChain(v, streams[v])
		}
		return
	}
	sharedReplayPool().ForEachN(par, len(streams), func(v int) {
		s.replayChain(v, streams[v])
	})
}

// replayChain replays one view's block stream through its stacks in
// ascending set count. A set count without a swept divisor replays the
// whole stream; any other replays its parent's kept records and folds
// the block's remaining accesses as depth-0 hits. setCounts[0] never
// has a parent, so its access delta is the block's access total.
func (s *StackSweep) replayChain(v int, recs []cache.Rec) {
	stacks, kept := s.stacks[v], s.kept[v]
	var total uint64
	for k, st := range stacks {
		in, p := recs, s.parent[k]
		if p >= 0 {
			in = kept[p]
		}
		before := st.Accesses()
		kept[k] = st.AccessBlock(in, kept[k][:0])
		if k == 0 {
			total = st.Accesses() - before
		} else if p >= 0 {
			st.Fold(total - (st.Accesses() - before))
		}
	}
}

// Curves derives geometry g's three miss-ratio views from the
// histograms — Sweep.Curves()-compatible, bit-identical to what the
// concrete caches would have reported.
func (s *StackSweep) Curves(g int) Curves {
	geom := s.geoms[g]
	out := Curves{
		SizesKB: geom.SizesKB,
		Inst:    make([]float64, len(geom.SizesKB)),
		Data:    make([]float64, len(geom.SizesKB)),
		Unified: make([]float64, len(geom.SizesKB)),
	}
	for j, kb := range geom.SizesKB {
		idx := s.setIdx[(kb<<10)/(geom.Ways*s.lineBytes)]
		out.Inst[j] = s.stacks[viewInst][idx].MissRatio(geom.Ways)
		out.Data[j] = s.stacks[viewData][idx].MissRatio(geom.Ways)
		out.Unified[j] = s.stacks[viewUnified][idx].MissRatio(geom.Ways)
	}
	return out
}
