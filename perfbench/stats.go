package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, lowest
// first. The reported tail is the highest of them with at least
// minBeyond samples above it in a run of the nominal sample count, so
// its estimate rests on real samples rather than on the single slowest
// one.
var tailLadder = []float64{50, 60, 70, 75, 80, 90, 95, 99, 99.9}

// minBeyond is the number of samples a reported tail percentile must
// have beyond it.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail picks the highest ladder percentile that leaves at least
// minBeyond of nominal samples above it, and returns that percentile, the
// value of xs there, and the number of xs beyond it. The percentile
// depends on the nominal count alone, never on how many samples the run
// collected, so a faster program is reported at the same percentile as a
// slower one. With a nominal count under 2*minBeyond no percentile
// qualifies and the median is reported (ok false).
func tail(xs []float64, nominal int) (p, value float64, beyond int, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if samplesBeyond(nominal, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, percentile(xs, p), samplesBeyond(len(xs), p), ok
}

// samplesBeyond is the number of n distinct samples strictly above the
// p-th percentile as percentile interpolates it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p/100*float64(n-1)))
}
