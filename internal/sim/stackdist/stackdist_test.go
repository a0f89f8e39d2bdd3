package stackdist

import (
	"math/rand"
	"testing"

	"repro/internal/sim/cache"
)

// synthStream packs a pseudo-random access stream the way the block
// decoder does: lines drawn from a small working set with bursts of
// sequential reuse, consecutive same-line accesses merged into runs.
func synthStream(r *rand.Rand, n, lineSpan int) []cache.Rec {
	var recs []cache.Rec
	line := uint64(r.Intn(lineSpan))
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2: // revisit the current line (forms runs)
		case 3, 4, 5, 6:
			line = uint64(r.Intn(lineSpan))
		default:
			line++
		}
		write := r.Intn(4) == 0
		if len(recs) == 0 || !cache.TryMerge(&recs[len(recs)-1], line, write) {
			recs = append(recs, cache.PackRec(line, write))
		}
	}
	return recs
}

// replayCache counts (accesses, misses) of a concrete ways-associative
// LRU cache with the given set count over the packed stream.
func replayCache(sets, ways int, blocks [][]cache.Rec) (uint64, uint64) {
	c := cache.New(cache.Config{
		Name: "ref", Size: sets * ways * 64, Ways: ways, LineSize: 64, Latency: 1,
	})
	for _, b := range blocks {
		c.AccessBlock(b)
	}
	return c.Accesses, c.Misses
}

// TestStackMatchesCache is the core differential: for every (sets,
// ways) combination — powers of two and not — the stack's Misses(W)
// must equal the concrete cache model's fill count exactly, and the
// MissRatio must be bit-identical.
func TestStackMatchesCache(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var blocks [][]cache.Rec
	for i := 0; i < 6; i++ {
		blocks = append(blocks, synthStream(r, 3000, 4096))
	}
	for _, sets := range []int{1, 2, 7, 16, 96, 128, 1000, 4096} {
		for _, depth := range []int{1, 2, 16} {
			s := New(sets, depth)
			for _, b := range blocks {
				s.AccessBlock(b, nil)
			}
			for ways := 1; ways <= depth; ways++ {
				wantA, wantM := replayCache(sets, ways, blocks)
				if s.Accesses() != wantA {
					t.Fatalf("sets=%d ways=%d: accesses %d, cache %d", sets, ways, s.Accesses(), wantA)
				}
				if got := s.Misses(ways); got != wantM {
					t.Errorf("sets=%d depth=%d ways=%d: misses %d, cache %d", sets, depth, ways, got, wantM)
				}
				wantRatio := float64(wantM) / float64(wantA)
				if got := s.MissRatio(ways); got != wantRatio {
					t.Errorf("sets=%d ways=%d: ratio %v, cache %v", sets, ways, got, wantRatio)
				}
			}
		}
	}
}

// TestGroupedMatchesInOrder forces both AccessBlock paths over the
// same streams and requires identical histograms: set grouping must be
// invisible in the totals, whatever the block size (including tiny
// tails and single-record blocks).
func TestGroupedMatchesInOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	stream := synthStream(r, 20000, 1<<16)
	for _, sets := range []int{64, 1000, 8192} {
		plain := New(sets, 16)
		plain.compress = false
		grouped := New(sets, 16)
		grouped.compress = true
		for _, blockLen := range []int{1, 3, 117, 4096} {
			for off := 0; off < len(stream); off += blockLen {
				end := off + blockLen
				if end > len(stream) {
					end = len(stream)
				}
				plain.AccessBlock(stream[off:end], nil)
				grouped.AccessBlock(stream[off:end], nil)
			}
		}
		if plain.Accesses() != grouped.Accesses() {
			t.Fatalf("sets=%d: accesses %d vs %d", sets, plain.Accesses(), grouped.Accesses())
		}
		ph, gh := plain.Hist(), grouped.Hist()
		for d := range ph {
			if ph[d] != gh[d] {
				t.Errorf("sets=%d: hist[%d] %d vs %d", sets, d, ph[d], gh[d])
			}
		}
	}
}

// TestMergedRuns checks the packed-run convention directly: a run's
// extra accesses are depth-0 hits, never misses.
func TestMergedRuns(t *testing.T) {
	s := New(4, 2)
	rec := cache.PackRec(5, false)
	for i := 0; i < 9; i++ {
		if !cache.TryMerge(&rec, 5, true) {
			t.Fatal("merge failed")
		}
	}
	s.AccessBlock([]cache.Rec{rec}, nil)
	if s.Accesses() != 10 {
		t.Fatalf("accesses %d, want 10", s.Accesses())
	}
	if got := s.Misses(1); got != 1 {
		t.Fatalf("misses %d, want 1 (cold fill only)", got)
	}
	if h := s.Hist(); h[0] != 9 {
		t.Fatalf("hist[0] %d, want 9", h[0])
	}
}

// TestHistogramShape checks the defining identities: Misses is
// non-increasing in ways, bounded by accesses, and Misses(1) + hits at
// depth 0 = accesses.
func TestHistogramShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := New(128, 16)
	s.AccessBlock(synthStream(r, 30000, 1<<14), nil)
	prev := s.Accesses() + 1
	for ways := 1; ways <= 16; ways++ {
		m := s.Misses(ways)
		if m > s.Accesses() {
			t.Fatalf("ways=%d: misses %d > accesses %d", ways, m, s.Accesses())
		}
		if m > prev {
			t.Fatalf("ways=%d: misses %d increased from %d", ways, m, prev)
		}
		prev = m
	}
	if got := s.Misses(1) + s.Hist()[0]; got != s.Accesses() {
		t.Fatalf("misses(1)+hist[0] = %d, want %d", got, s.Accesses())
	}
}

// TestAccessMatchesAccessBlock pins the serial entry point to the
// block path.
func TestAccessMatchesAccessBlock(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	stream := synthStream(r, 5000, 1<<12)
	a, b := New(96, 8), New(96, 8)
	for _, rec := range stream {
		a.Access(cache.RecLine(rec), cache.RecRun(rec))
	}
	b.AccessBlock(stream, nil)
	if a.Accesses() != b.Accesses() {
		t.Fatalf("accesses %d vs %d", a.Accesses(), b.Accesses())
	}
	ah, bh := a.Hist(), b.Hist()
	for d := range ah {
		if ah[d] != bh[d] {
			t.Errorf("hist[%d]: %d vs %d", d, ah[d], bh[d])
		}
	}
}
