package coaxial

import (
	"context"
	"testing"
)

// TestLoadedWindowAllocBudget pins the steady-state allocation count of
// warm loaded experiment windows: the BenchmarkRunWindowLoaded
// configuration (12 cores, COAXIAL-4x, mix 3) and the BenchmarkRunWindowRack
// one (a 2-host CXL-pooled rack on rack mixes 0 and 1). With the request
// arena recycling memory requests and the SoA hot state reused across
// windows, a warm window allocates on the order of 1k objects per host
// (system construction and cache cloning); the budgets below are
// order-of-magnitude tripwires for reintroduced per-request or per-cycle
// allocation, not tight bounds.
func TestLoadedWindowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window run in -short mode")
	}
	cases := []struct {
		name string
		run  func(ctx context.Context, r *Runner) error
		// Observed ~1.1k per host on a warm window with alloccheck-clean
		// hot paths; 2k per host leaves headroom for cache-clone jitter
		// while still tripping on any reintroduced per-request allocation
		// (60k requests per host per window).
		budget float64
	}{
		{"loaded/mix3", func(ctx context.Context, r *Runner) error {
			_, err := r.RunMix(ctx, Coaxial4x(), MixWorkloads(3, 12))
			return err
		}, 2_000},
		{"rack2h/rack0+rack1", func(ctx context.Context, r *Runner) error {
			wls := [][]Workload{RackMixWorkloads(0, 12), RackMixWorkloads(1, 12)}
			_, err := r.RunRack(ctx, TopologyCoaxialPooled(2).Rack, wls)
			return err
		}, 4_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(WithSeed(1), WithWindows(100_000, 5_000, 60_000))
			ctx := context.Background()
			// Prime the warm snapshots so the measured runs hit the sweep
			// steady state (see benchRunWindowWarm).
			if err := tc.run(ctx, r); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := tc.run(ctx, r); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Errorf("warm window allocated %.0f objects, budget %.0f", allocs, tc.budget)
			}
			t.Logf("warm window: %.0f allocs (budget %.0f)", allocs, tc.budget)
		})
	}
}
