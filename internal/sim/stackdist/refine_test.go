package stackdist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim/cache"
)

// refineParents applies StackSweep's parent rule to ascending set
// counts: each one's parent is the largest smaller set count dividing
// it, or -1 when there is none.
func refineParents(sets []int) []int {
	parent := make([]int, len(sets))
	for k := range sets {
		parent[k] = -1
		for p := k - 1; p >= 0; p-- {
			if sets[k]%sets[p] == 0 {
				parent[k] = p
				break
			}
		}
	}
	return parent
}

// replayTree replays one block through a refinement tree of stacks in
// ascending order: roots take the whole block, every other stack its
// parent's kept records plus a Fold of the block's other accesses. It
// returns the kept lists, reusing kept's buffers.
func replayTree(stacks []*Stack, parent []int, kept [][]cache.Rec, block []cache.Rec) [][]cache.Rec {
	var total uint64
	for _, rec := range block {
		total += cache.RecRun(rec) + 1
	}
	for k, st := range stacks {
		in := block
		if parent[k] >= 0 {
			in = kept[parent[k]]
		}
		before := st.Accesses()
		kept[k] = st.AccessBlock(in, kept[k][:0])
		if parent[k] >= 0 {
			st.Fold(total - (st.Accesses() - before))
		}
	}
	return kept
}

// refKept replays block record by record into an unfiltered reference
// stack and returns, in stream order, the records whose head was not a
// depth-0 hit — what AccessBlock must keep.
func refKept(ref *Stack, block []cache.Rec) []cache.Rec {
	var keep []cache.Rec
	for _, rec := range block {
		h0 := ref.hist[0]
		ref.Access(cache.RecLine(rec), cache.RecRun(rec))
		if ref.hist[0]-h0 != cache.RecRun(rec)+1 {
			keep = append(keep, rec)
		}
	}
	return keep
}

// randomBlocks splits stream into blocks of 1 to maxLen records, with
// a share of single-record blocks.
func randomBlocks(r *rand.Rand, stream []cache.Rec, maxLen int) [][]cache.Rec {
	var blocks [][]cache.Rec
	for off := 0; off < len(stream); {
		end := min(len(stream), off+1+r.Intn(maxLen))
		if r.Intn(6) == 0 {
			end = off + 1
		}
		blocks = append(blocks, stream[off:end])
		off = end
	}
	return blocks
}

// TestRefinementChainMatchesFullStream is the set-refinement
// differential: over divisor chains and trees with non-power-of-two
// set counts, mixed depths, both AccessBlock paths and random block
// splits, a stack fed only its parent's kept records plus Fold must
// end with exactly the histogram of an independent full-stream stack,
// and every kept list must be exactly the block's non-MRU-head records
// in stream order.
func TestRefinementChainMatchesFullStream(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	blocks := randomBlocks(r, synthStream(r, 20000, 1<<13), 300)
	trees := [][]int{
		{1, 2, 3, 6, 7, 12, 16, 96, 4096},
		{2, 4, 8, 16, 32, 64},
		{3, 5, 7, 15, 21, 35, 105}, // three roots
	}
	depthSets := [][]int{{1}, {2}, {16}, {1, 2, 16}, {16, 1, 2}}
	compressModes := []string{"off", "on", "alternating"}
	for _, sets := range trees {
		parent := refineParents(sets)
		for _, depths := range depthSets {
			for _, mode := range compressModes {
				name := fmt.Sprintf("sets=%v depths=%v compress=%s", sets, depths, mode)
				stacks := make([]*Stack, len(sets))
				refs := make([]*Stack, len(sets))
				for k, n := range sets {
					d := depths[k%len(depths)]
					stacks[k], refs[k] = New(n, d), New(n, d)
					stacks[k].compress = mode == "on" || (mode == "alternating" && k%2 == 0)
				}
				kept := make([][]cache.Rec, len(sets))
				for bi, b := range blocks {
					kept = replayTree(stacks, parent, kept, b)
					for k := range sets {
						if want := refKept(refs[k], b); !slices.Equal(kept[k], want) {
							t.Fatalf("%s: block %d, %d sets: kept %d records, want %d (or order differs)",
								name, bi, sets[k], len(kept[k]), len(want))
						}
					}
				}
				for k, n := range sets {
					if stacks[k].Accesses() != refs[k].Accesses() {
						t.Fatalf("%s: %d sets: accesses %d, full stream %d", name, n, stacks[k].Accesses(), refs[k].Accesses())
					}
					if got, want := stacks[k].Hist(), refs[k].Hist(); !slices.Equal(got, want) {
						t.Fatalf("%s: %d sets: hist %v, full stream %v", name, n, got, want)
					}
				}
			}
		}
	}
}

// FuzzStackMatchesCache fuzzes the filtered stack-distance path against
// the concrete cache model. A random packed stream, split into random
// blocks, goes through a parent stack at a random divisor of a random
// set count (or none) and a child stack fed the parent's kept records
// plus Fold. For every associativity up to each stack's depth, its
// miss count must equal a concrete cache.Cache's over the full stream
// and its miss ratio must be bit-identical.
func FuzzStackMatchesCache(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint16(12), uint8(3), uint8(1), uint8(0x24), uint8(9), uint8(40))
	f.Add(uint64(2), uint16(4000), uint16(96), uint8(15), uint8(5), uint8(0x3b), uint8(6), uint8(0))
	f.Add(uint64(3), uint16(500), uint16(1), uint8(0), uint8(0), uint8(0x01), uint8(2), uint8(63))
	f.Add(uint64(4), uint16(2500), uint16(4095), uint8(7), uint8(255), uint8(0x12), uint8(12), uint8(17))
	f.Add(uint64(5), uint16(1800), uint16(1000), uint8(1), uint8(4), uint8(0x3f), uint8(4), uint8(5))

	f.Fuzz(func(t *testing.T, seed uint64, n, setsIn uint16, depthIn, parentIn, flags, span, maxBlock uint8) {
		r := rand.New(rand.NewSource(int64(seed)))
		blocks := randomBlocks(r, synthStream(r, int(n%4096), 16<<(span%10)), 1+int(maxBlock%64))

		sets, depth := 1+int(setsIn%1024), 1+int(depthIn%16)
		var divs []int
		for d := 1; d <= sets; d++ {
			if sets%d == 0 {
				divs = append(divs, d)
			}
		}
		child := New(sets, depth)
		child.compress = flags&1 != 0
		stacks, parent := []*Stack{child}, []int{-1}
		if pi := int(parentIn) % (len(divs) + 1); pi < len(divs) {
			p := New(divs[pi], 1+int(flags>>2)%16)
			p.compress = flags&2 != 0
			stacks, parent = []*Stack{p, child}, []int{-1, 0}
		}
		kept := make([][]cache.Rec, len(stacks))
		for _, b := range blocks {
			kept = replayTree(stacks, parent, kept, b)
		}

		for _, st := range stacks {
			for ways := 1; ways <= st.Depth(); ways++ {
				wantA, wantM := replayCache(st.Sets(), ways, blocks)
				if st.Accesses() != wantA {
					t.Fatalf("sets=%d ways=%d: accesses %d, cache %d", st.Sets(), ways, st.Accesses(), wantA)
				}
				if got := st.Misses(ways); got != wantM {
					t.Fatalf("sets=%d depth=%d ways=%d (parent %v): misses %d, cache %d",
						st.Sets(), st.Depth(), ways, parent, got, wantM)
				}
				if wantA == 0 {
					continue
				}
				if got, want := st.MissRatio(ways), float64(wantM)/float64(wantA); got != want {
					t.Fatalf("sets=%d ways=%d: ratio %v, cache %v", st.Sets(), ways, got, want)
				}
			}
		}
	})
}
