// Package stackdist implements Mattson-style per-set LRU stack-distance
// accounting over the packed access streams the block decoder already
// produces (cache.Rec). One pass over a stream yields a reuse-depth
// histogram per set count, from which the exact miss count of *every*
// associativity up to the tracked depth follows arithmetically:
//
//	Misses(W) = Σ_{d >= W} hist[d]
//
// because a W-way true-LRU set-associative cache hits an access exactly
// when the line is among the W most recently touched distinct lines of
// its set (LRU's inclusion property), i.e. when its per-set stack depth
// is < W. The concrete cache.Cache model satisfies this precisely: its
// LRU stamps are strictly increasing (no ties among valid ways) and
// invalid ways fill before any victim is chosen (stamp 0 is older than
// any real stamp), so its resident set is always the W most recent
// distinct lines and its integer Accesses/Misses counters — and hence
// the float64 miss ratios — match this accounting bit for bit.
package stackdist

import (
	"fmt"

	"repro/internal/sim/cache"
)

// compressBytes is the tag-slab size past which AccessBlock groups each
// block's records by set before replaying them (see accessGrouped): for
// stacks much larger than the cache hierarchy the per-record set is
// effectively a random slab line, so grouping turns one cache miss per
// record into one per touched set, and repeats of a set's hottest line
// inside the block fold into a counter bump with no stack walk at all.
const compressBytes = 1 << 19

// Stack tracks the LRU stack distance of every access for one set
// count. The depth bounds how far a line's reuse is tracked: a reuse
// deeper than depth lands in the overflow bucket and counts as a miss
// for every associativity ≤ depth, which is exactly what a cache with
// at most depth ways would see. One Stack therefore answers Misses(W)
// for every W in [1, depth].
//
// A Stack is not safe for concurrent use. Sweeps give every (view, set
// count) pair its own Stack and chain a view's Stacks through one
// worker: a set count replays only the records its divisor parent kept
// (see AccessBlock) and Folds the rest.
type Stack struct {
	sets  uint64
	depth int
	pow2  bool
	mask  uint64

	// slab holds the per-set stacks back to back: set s occupies
	// slab[s*depth : (s+1)*depth], most recent first. Entries are
	// line+1 so the zero value means "empty slot"; empty slots only
	// ever trail the valid entries of a set.
	slab []uint64

	// hist[d] counts accesses whose line was found at stack depth d;
	// hist[depth] counts accesses not found within depth (cold or
	// too-deep reuse — a miss for every tracked associativity).
	hist     []uint64
	accesses uint64

	// compress gates the per-block set-grouping path; set by New from
	// the slab size, overridable in tests.
	compress bool

	// Grouping scratch, reused across blocks: next chains records of
	// the same set in stream order; mru flags the records whose head
	// was an MRU hit; tab/tabGen is an epoch-stamped open-addressing
	// map from set to group index.
	next   []int32
	mru    []bool
	groups []group
	tab    []int32
	tabGen []uint32
	gen    uint32
}

type group struct {
	set        uint64
	head, tail int32
}

// New returns a Stack over the given set count, tracking reuse to the
// given depth (the largest associativity it can answer for).
func New(sets, depth int) *Stack {
	if sets < 1 {
		panic(fmt.Sprintf("stackdist: %d sets", sets))
	}
	if depth < 1 {
		panic(fmt.Sprintf("stackdist: depth %d", depth))
	}
	s := &Stack{
		sets:  uint64(sets),
		depth: depth,
		pow2:  sets&(sets-1) == 0,
		mask:  uint64(sets - 1),
		slab:  make([]uint64, sets*depth),
		hist:  make([]uint64, depth+1),
	}
	s.compress = len(s.slab)*8 >= compressBytes
	return s
}

// Sets returns the set count. Depth returns the tracked stack depth.
func (s *Stack) Sets() int  { return int(s.sets) }
func (s *Stack) Depth() int { return s.depth }

func (s *Stack) setOf(line uint64) uint64 {
	if s.pow2 {
		return line & s.mask
	}
	return line % s.sets
}

// Access records one access to line plus run immediate same-line
// repeats (the packed merged-run convention: repeats are depth-0 hits
// by construction, matching cache.AccessBlock's run retirement).
func (s *Stack) Access(line, run uint64) {
	depth := uint64(s.depth)
	base := s.setOf(line) * depth
	s.access(s.slab[base:base+depth], line, run)
}

// access replays one record against a single set's stack st and
// reports whether its head was an MRU hit (depth 0, no state change).
func (s *Stack) access(st []uint64, line, run uint64) bool {
	tag := line + 1
	s.accesses += run + 1
	if st[0] == tag {
		s.hist[0] += run + 1
		return true
	}
	s.hist[0] += run
	prev := st[0]
	st[0] = tag
	d := s.depth
	for i := 1; i < s.depth; i++ {
		cur := st[i]
		st[i] = prev
		if cur == tag {
			d = i
			break
		}
		if cur == 0 {
			break // trailing empties: the line is cold, d stays depth
		}
		prev = cur
	}
	s.hist[d]++
	return false
}

// AccessBlock replays one block's packed records and appends to keep,
// in stream order, every record whose head was not an MRU hit; it
// returns the extended slice. For large slabs the records are first
// grouped by set (order within a set preserved) — per-set LRU state
// depends only on that set's subsequence and the histogram is a
// commutative sum, so the totals are identical to the in-order replay
// for every input.
//
// The kept records are all a finer set count needs (Hill & Smith's set
// refinement): when this Stack's set count S divides S′, x mod S′
// fixes x mod S, so every S′-set holds a subset of one S-set's lines
// in the same recency order. A record whose line is MRU in its S-set
// is therefore MRU in its S′-set too — at S′ a depth-0 hit with no
// state change. Replaying only the kept records at S′ and folding the
// block's other accesses in with Fold yields exactly the histogram of
// the full stream.
func (s *Stack) AccessBlock(recs, keep []cache.Rec) []cache.Rec {
	if len(recs) == 0 {
		return keep
	}
	if s.compress && len(recs) > 1 {
		return s.accessGrouped(recs, keep)
	}
	depth := uint64(s.depth)
	for _, rec := range recs {
		line := cache.RecLine(rec)
		base := s.setOf(line) * depth
		if !s.access(s.slab[base:base+depth], line, cache.RecRun(rec)) {
			keep = append(keep, rec)
		}
	}
	return keep
}

// Fold credits n accesses as depth-0 hits without touching any set:
// the accesses a coarser divisor Stack proved MRU (see AccessBlock).
func (s *Stack) Fold(n uint64) {
	s.accesses += n
	s.hist[0] += n
}

// accessGrouped is the compressed large-slab path: chain the block's
// records per set, then drain set by set so each per-set stack is
// loaded once per block instead of once per record, with same-line
// repeats inside the block folding through the MRU fast path. The
// per-record MRU flags then compact the kept records in stream order.
func (s *Stack) accessGrouped(recs, keep []cache.Rec) []cache.Rec {
	need := 1
	for need < 2*len(recs) {
		need <<= 1
	}
	if len(s.tab) < need {
		s.tab = make([]int32, need)
		s.tabGen = make([]uint32, need)
	}
	s.gen++
	if s.gen == 0 { // epoch counter wrapped: reset the stamps once
		for i := range s.tabGen {
			s.tabGen[i] = 0
		}
		s.gen = 1
	}
	gen := s.gen
	mask := uint32(len(s.tab) - 1)
	if cap(s.next) < len(recs) {
		s.next = make([]int32, len(recs))
		s.mru = make([]bool, len(recs))
	}
	next, mru := s.next[:len(recs)], s.mru[:len(recs)]
	s.groups = s.groups[:0]
	for i, rec := range recs {
		next[i] = -1
		set := s.setOf(cache.RecLine(rec))
		h := uint32((set*0x9E3779B97F4A7C15)>>32) & mask
		for {
			if s.tabGen[h] != gen {
				s.tabGen[h] = gen
				s.tab[h] = int32(len(s.groups))
				s.groups = append(s.groups, group{set: set, head: int32(i), tail: int32(i)})
				break
			}
			if g := &s.groups[s.tab[h]]; g.set == set {
				next[g.tail] = int32(i)
				g.tail = int32(i)
				break
			}
			h = (h + 1) & mask
		}
	}
	depth := uint64(s.depth)
	for gi := range s.groups {
		g := &s.groups[gi]
		base := g.set * depth
		st := s.slab[base : base+depth]
		for idx := g.head; idx >= 0; idx = next[idx] {
			rec := recs[idx]
			mru[idx] = s.access(st, cache.RecLine(rec), cache.RecRun(rec))
		}
	}
	for i, rec := range recs {
		if !mru[i] {
			keep = append(keep, rec)
		}
	}
	return keep
}

// Accesses returns the total accesses recorded (merged runs included).
func (s *Stack) Accesses() uint64 { return s.accesses }

// Misses returns the exact miss count a ways-associative true-LRU
// cache with this set count would report over the recorded stream.
// ways must be in [1, Depth()].
func (s *Stack) Misses(ways int) uint64 {
	if ways < 1 || ways > s.depth {
		panic(fmt.Sprintf("stackdist: Misses(%d) outside tracked depth %d", ways, s.depth))
	}
	var m uint64
	for _, h := range s.hist[ways:] {
		m += h
	}
	return m
}

// MissRatio returns Misses(ways)/Accesses as the concrete cache model
// computes it — the same integer counts through the same float64
// division, so the ratios are bit-identical (0 when never accessed).
func (s *Stack) MissRatio(ways int) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.Misses(ways)) / float64(s.accesses)
}

// Hist returns a copy of the reuse-depth histogram: Hist()[d] counts
// accesses hitting at depth d for d < Depth(); Hist()[Depth()] counts
// accesses not found within the tracked depth.
func (s *Stack) Hist() []uint64 {
	return append([]uint64(nil), s.hist...)
}
