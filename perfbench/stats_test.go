package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10, 50, 5, false},
		{19, 50, 9, false},
		{20, 50, 10, true},
		{21, 50, 10, true},
		{27, 60, 11, true},
		{32, 70, 10, true},
		{40, 75, 10, true},
		{99, 90, 10, true},
		{100, 90, 10, true},
		{199, 95, 10, true},
		{200, 95, 10, true},
		{1000, 99, 10, true},
		{9998, 99.9, 10, true},
		{9999, 99.9, 10, true},
	} {
		p, v, beyond, ok := tail(seq(c.n), c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: tail at p%g with %d beyond (ok %v), want p%g with %d (ok %v)", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
		if want := percentile(seq(c.n), p); v != want {
			t.Errorf("n=%d: tail value %g, want p%g = %g", c.n, v, p, want)
		}
		// The count printed is real: that many samples exceed the value.
		above := 0
		for _, x := range seq(c.n) {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Errorf("n=%d: %d samples exceed the p%g value %g, report says %d", c.n, above, p, v, beyond)
		}
	}
}

func TestTailPercentileFollowsNominalCountOnly(t *testing.T) {
	// A faster run collects more samples, a slower one fewer; both are
	// reported at the percentile of the nominal count.
	for _, n := range []int{12, 32, 100, 1000} {
		p, v, beyond, ok := tail(seq(n), 32)
		if p != 70 || !ok {
			t.Errorf("n=%d at nominal 32: p%g (ok %v), want p70", n, p, ok)
		}
		if v != percentile(seq(n), 70) || beyond != samplesBeyond(n, 70) {
			t.Errorf("n=%d: value %g with %d beyond, want the sample's own p70", n, v, beyond)
		}
	}
}

func TestTailNotePrintsSampleCount(t *testing.T) {
	r := newReport()
	r.setTail("job_ms_tail", seq(100), 100)
	if got := r.notes["job_ms_tail"]; got != "p90 for nominal n=100, 10 samples beyond, n=100" {
		t.Errorf("note %q", got)
	}
	r.setTail("job_ms_tail", seq(150), 100)
	if got := r.notes["job_ms_tail"]; got != "p90 for nominal n=100, 15 samples beyond, n=150" {
		t.Errorf("note %q", got)
	}
	r.setTail("job_ms_tail", seq(12), 12)
	if got := r.notes["job_ms_tail"]; !strings.Contains(got, "n=12") || !strings.Contains(got, "median shown") {
		t.Errorf("note for too few samples %q", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
}
