package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentile is the percentile rule every tail metric follows: the
// highest percentile on the ladder 99.9, 99, 90, 50 that leaves at
// least ten of n samples beyond it, or 0 when even the median does
// not (fewer than 20 samples).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		// Samples strictly beyond the p-th percentile: n*(100-p)/100,
		// compared in tenths of a percent to stay in integers.
		if n*int(math.Round((100-p)*10)) >= 10*1000 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of xs (0 for no
// samples). xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, averaging the two middle values of
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), which is how a run set's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, exclusive method, transcribed: the
		// cut point i*(n+1)/4 interpolates between 1-based
		// neighbours j and j+1, with j clamped into the data.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// mannWhitney returns the two-sided p-value of the Mann-Whitney U test
// between a and b (normal approximation with tie and continuity
// corrections), and the fraction of (a, b) pairs in which b is the
// smaller value, ties counting half.
func mannWhitney(a, b []float64) (p, bLower float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1, 0.5
	}
	type obs struct {
		v    float64
		from int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var rankA, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].from == 0 {
				rankA += rank
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	fn1, fn2 := float64(n1), float64(n2)
	uA := rankA - fn1*(fn1+1)/2 // pairs where a > b, ties half
	bLower = uA / (fn1 * fn2)
	mean := fn1 * fn2 / 2
	nn := fn1 + fn2
	sigma := math.Sqrt(fn1 * fn2 / 12 * ((nn + 1) - tieTerm/(nn*(nn-1))))
	if sigma == 0 {
		return 1, bLower
	}
	z := (math.Abs(uA-mean) - 0.5) / sigma
	if z < 0 {
		z = 0
	}
	return math.Erfc(z / math.Sqrt2), bLower
}

// ms and us convert durations to the float units the metrics carry.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
