package machine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

// Fuzz input decoding. Every choice is total (any input maps to a
// valid stream, geometry and split), so the fuzzer never wastes
// executions on rejected shapes. The inputs are scalars on purpose:
// the stream and split come from a seeded generator, which keeps each
// execution cheap and lets the fuzzer minimize a failure in
// milliseconds rather than spending its minimization budget on
// byte-by-byte cuts of a long stream.
var (
	fuzzWays  = []int{1, 2, 4, 8, 16}
	fuzzLines = []int{32, 64, 128, 256}
	// fuzzSizesKB mixes tiny caches (capacity misses over the small
	// address range), non-power-of-two set counts (modulo set
	// indexing) and a 4 MB cache whose 32-byte-line stacks are large
	// enough to take the stack-distance engine's set-grouping path.
	fuzzSizesKB = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 512, 4096}
)

const (
	fuzzCodeBase = 0x0040_0000
	fuzzDataBase = 0x1000_0000
)

// fuzzStream generates n instructions. mix's low nibble sets the
// share of loads and stores, its high nibble the share of jumps (the
// rest fall through to the next PC); span picks the data footprint per
// region, 256 B to 512 KB, and its top bits how many regions 1 MB
// apart the accesses spread over, so power-of-two set counts see
// conflicts.
func fuzzStream(rng *xrand.Rand, n int, mix, span uint8) []isa.Inst {
	memShare := float64(mix&15) / 15
	jumpShare := float64(mix>>4) / 15
	footprint := uint64(256) << (span % 12)
	regions := 1 + uint64(span>>6)
	insts := make([]isa.Inst, n)
	pc := uint64(fuzzCodeBase)
	for k := range insts {
		if rng.Bool(jumpShare) {
			pc = fuzzCodeBase + rng.Uint64n(4096)*isa.InstBytes
		} else {
			pc += isa.InstBytes
		}
		in := isa.Inst{PC: pc, Op: isa.IntAlu}
		if rng.Bool(memShare) {
			in.Op, in.Size = isa.Load, 8
			if rng.Bool(0.3) {
				in.Op = isa.Store
			}
			in.Addr = fuzzDataBase + rng.Uint64n(regions)<<20 + rng.Uint64n(footprint)
		}
		insts[k] = in
	}
	return insts
}

// fuzzGeometry picks a line size, an associativity and 1-4 distinct
// sizes (sizes' low 2 bits give the count, each further 6-bit field
// one size), each rounded up to the nearest capacity that divides
// into whole sets of that geometry.
func fuzzGeometry(ways, line uint8, sizes uint32) (int, SweepGeometry) {
	lineBytes := fuzzLines[int(line)%len(fuzzLines)]
	g := SweepGeometry{Ways: fuzzWays[int(ways)%len(fuzzWays)]}
	unit := max(1, g.Ways*lineBytes>>10)
	for i := range 1 + int(sizes&3) {
		kb := fuzzSizesKB[int(sizes>>(2+6*i)&63)%len(fuzzSizesKB)]
		kb = (kb + unit - 1) / unit * unit
		if !slices.Contains(g.SizesKB, kb) {
			g.SizesKB = append(g.SizesKB, kb)
		}
	}
	slices.Sort(g.SizesKB)
	return lineBytes, g
}

// divides reports whether every size of g splits into whole sets.
func divides(g SweepGeometry, lineBytes int) bool {
	for _, kb := range g.SizesKB {
		if kb<<10%(g.Ways*lineBytes) != 0 {
			return false
		}
	}
	return true
}

// FuzzStackSweepMatchesSweep is the differential fuzz of the two sweep
// engines. A random instruction stream goes through the concrete-cache
// oracle (Sweep, one instruction at a time) and, split into random
// blocks of 1 to maxBlock instructions, through the single-pass
// StackSweep. The StackSweep prices the fuzzed geometry plus a second
// associativity over the same sizes in one pass (shared set counts
// take the deeper of the two stacks); each geometry's curves must
// equal its own oracle's exactly.
func FuzzStackSweepMatchesSweep(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0x33), uint8(4), uint8(3), uint8(2), uint8(1), uint32(0x1c), uint8(0), false)
	f.Add(uint64(2), uint16(3000), uint8(0x28), uint8(0x45), uint8(0), uint8(4), uint8(0), uint32(0x3b2c3), uint8(63), true)
	f.Add(uint64(3), uint16(1500), uint8(0x0f), uint8(0xc6), uint8(4), uint8(0), uint8(3), uint32(0x2416), uint8(4), false)
	f.Add(uint64(4), uint16(2000), uint8(0xf7), uint8(9), uint8(2), uint8(1), uint8(2), uint32(0x621), uint8(31), true)
	f.Add(uint64(5), uint16(800), uint8(0x5a), uint8(0x82), uint8(1), uint8(3), uint8(0), uint32(0x3d), uint8(1), false)

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, mix, span, ways, ways2, line uint8, sizes uint32, maxBlock uint8, par bool) {
		rng := xrand.New(seed)
		insts := fuzzStream(rng, int(n%4096), mix, span)
		lineBytes, g := fuzzGeometry(ways, line, sizes)
		geoms := []SweepGeometry{g}
		g2 := SweepGeometry{SizesKB: g.SizesKB, Ways: fuzzWays[int(ways2)%len(fuzzWays)]}
		if g2.Ways != g.Ways && divides(g2, lineBytes) {
			geoms = append(geoms, g2)
		}

		ss, err := NewStackSweep(lineBytes, geoms...)
		if err != nil {
			t.Fatalf("NewStackSweep(%d, %+v): %v", lineBytes, geoms, err)
		}
		ss.Parallelism = 1
		if par {
			ss.Parallelism = 2
		}
		for i := 0; i < len(insts); {
			end := min(len(insts), i+1+rng.Intn(1+int(maxBlock%64)))
			ss.InstBlock(insts[i:end])
			i = end
		}

		for gi, geom := range geoms {
			ref, err := NewSweepSpec(geom.SizesKB, geom.Ways, lineBytes)
			if err != nil {
				t.Fatalf("NewSweepSpec(%v, %d, %d): %v", geom.SizesKB, geom.Ways, lineBytes, err)
			}
			for i := range insts {
				ref.Inst(&insts[i])
			}
			if got, want := ss.Curves(gi), ref.Curves(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d insts, line %d, geometry %+v: stackdist diverges from replay\n got %+v\nwant %+v",
					len(insts), lineBytes, geom, got, want)
			}
		}
	})
}
