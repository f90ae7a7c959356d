package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"coaxial/internal/memreq"
	"coaxial/internal/trace"
)

// TestWarmStateBitIdentical pins the warm-state contract: a timed run
// seeded from a CaptureWarm snapshot must be bit-identical to the cold run
// that does its own untimed warmup, and the snapshot must be reusable (two
// consecutive warm runs agree, proving the snapshot is not mutated).
func TestWarmStateBitIdentical(t *testing.T) {
	workloads := trace.Mix(2, 12)
	rc := RunConfig{
		FunctionalWarmupInstr: 60_000,
		WarmupInstr:           2_000,
		MeasureInstr:          8_000,
		Seed:                  3,
	}
	for _, cfg := range []Config{Baseline(), Coaxial4x()} {
		t.Run(cfg.Name, func(t *testing.T) {
			cold, err := RunMix(cfg, workloads, rc)
			if err != nil {
				t.Fatal(err)
			}
			ws, ok, err := CaptureWarm(cfg, workloads, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("synthetic generators should be cloneable")
			}
			for i := 0; i < 2; i++ {
				warm, err := RunMixWarm(context.Background(), cfg, ws, rc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("warm run %d diverges from cold start\ncold: %+v\nwarm: %+v", i, cold, warm)
				}
			}
		})
	}
}

// warmCacheBytes is the cache metadata a warm snapshot holds: 12 bytes
// (an 8-byte tag word and a 4-byte LRU stamp) per line of every L1, L2 and
// LLC slice it carries.
func warmCacheBytes(cfg Config, ws *WarmState) uint64 {
	lines := len(ws.l1)*cfg.L1.SizeBytes/memreq.LineSize + len(ws.l2)*cfg.L2.SizeBytes/memreq.LineSize
	for i := 0; i < ws.llc.Slices(); i++ {
		lines += ws.llc.Slice(i).Sets() * cfg.LLCAssoc
	}
	return uint64(lines) * 12
}

// TestWarmRestoreAllocations pins what a warm point costs to set up. A
// 1-active-core system holds exactly one L1/L2 pair, and NewWarmSystem
// allocates the snapshot's cache clones plus a fixed slack for the rest of
// the system, far less than one more set of caches: the restore builds
// the system around the clones instead of building caches to discard.
func TestWarmRestoreAllocations(t *testing.T) {
	w, err := trace.WorkloadByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline().WithActiveCores(1)
	rc := RunConfig{FunctionalWarmupInstr: 20_000, WarmupInstr: 1_000, MeasureInstr: 2_000, Seed: 1}
	ws, ok, err := CaptureWarm(cfg, []trace.Workload{w}, rc)
	if err != nil || !ok {
		t.Fatalf("capture: ok=%v err=%v", ok, err)
	}
	if len(ws.l1) != 1 || len(ws.l2) != 1 {
		t.Errorf("snapshot holds %d L1 and %d L2 caches for 1 active core", len(ws.l1), len(ws.l2))
	}
	const slack = 256 << 10
	limit := warmCacheBytes(cfg, ws) + slack
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys, err := NewWarmSystem(cfg, ws, rc, HostParams{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.l1) != 1 || len(sys.l2) != 1 {
		t.Errorf("restored system holds %d L1 and %d L2 caches for 1 active core", len(sys.l1), len(sys.l2))
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > limit {
		t.Errorf("NewWarmSystem allocated %d bytes, want <= %d (cache metadata %d + slack %d)",
			got, limit, limit-slack, slack)
	}
}

// TestWarmStateMismatch checks the guards against consuming a snapshot
// with an incompatible configuration.
func TestWarmStateMismatch(t *testing.T) {
	workloads := trace.Mix(0, 12)
	rc := RunConfig{FunctionalWarmupInstr: 10_000, MeasureInstr: 2_000, Seed: 1}
	ws, ok, err := CaptureWarm(Coaxial4x(), workloads, rc)
	if err != nil || !ok {
		t.Fatalf("capture: ok=%v err=%v", ok, err)
	}
	if _, err := RunMixWarm(context.Background(), Baseline(), ws, rc); err == nil {
		t.Error("expected geometry mismatch error (Baseline has a different LLC)")
	}
	rc2 := rc
	rc2.Seed = 9
	if _, err := RunMixWarm(context.Background(), Coaxial4x(), ws, rc2); err == nil {
		t.Error("expected seed mismatch error")
	}
}

// TestRunCancellation checks cooperative cancellation: a canceled context
// stops the run at a cycle-window boundary with a partial Result and an
// error wrapping the cause.
func TestRunCancellation(t *testing.T) {
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // stop at the first window boundary
	rc := RunConfig{
		FunctionalWarmupInstr: 10_000,
		WarmupInstr:           50_000,
		MeasureInstr:          50_000,
		Seed:                  1,
	}
	res, err := RunCtx(ctx, Coaxial4x(), w, rc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Config != "coaxial-4x" {
		t.Errorf("partial result not populated: %+v", res)
	}
}
