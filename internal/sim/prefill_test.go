package sim

import (
	"testing"

	"coaxial/internal/memreq"
	"coaxial/internal/trace"
)

// prefillCase is one pre-fill equivalence point: the production bulk
// pre-fill against the draw-order reference, LLC.Fill once per draw.
type prefillCase struct {
	sliceBytes int
	hints      int    // active cores, each with its own pre-fill hint
	offset     uint64 // HostParams.AddrOffset
	seed       uint64
	// preSeed, when non-zero, first fills the LLC (draw order) from this
	// seed and then invalidates every holeEvery-th line of another draw
	// sequence, so the pre-fill lands on dirty contents with holes.
	preSeed   uint64
	holeEvery int
	// wsBytes, when non-zero, shrinks every hint's working set so most
	// draws repeat a line.
	wsBytes uint64
}

func (pc prefillCase) check(t testing.TB) {
	cfg := Baseline()
	cfg.LLCSliceBytes = pc.sliceBytes
	cfg.ActiveCores = pc.hints
	workloads := trace.Mix(int(pc.seed%8), pc.hints)
	hints := make([]trace.Params, len(workloads))
	for i, w := range workloads {
		hints[i] = w.Params
		if pc.wsBytes != 0 {
			hints[i].WSBytes = pc.wsBytes
		}
	}
	sys, err := NewHostSystem(cfg, workloads, pc.seed, HostParams{AddrOffset: pc.offset})
	if err != nil {
		t.Fatal(err)
	}
	if pc.preSeed != 0 {
		sys.prefillDraws(hints, pc.preSeed)(func(addr uint64, dirty bool) { sys.llc.Fill(addr, dirty) })
		k := 0
		sys.prefillDraws(hints, pc.preSeed+1)(func(addr uint64, _ bool) {
			if k++; k%pc.holeEvery == 0 {
				sys.llc.Slice(sys.llc.SliceOf(addr)).Invalidate(addr)
			}
		})
	}
	ref := sys.llc.Clone()
	sys.prefillDraws(hints, pc.seed)(func(addr uint64, dirty bool) { ref.Fill(addr, dirty) })
	sys.prefillLLC(hints, pc.seed)
	if d := sys.llc.DebugDiff(ref); d != "" {
		t.Fatalf("%+v: bulk pre-fill differs from draw order: %s", pc, d)
	}
}

// TestPrefillOrder pins the bulk LLC pre-fill to the draw-order loop it
// replaces: tags, dirty bits, LRU stamps, slice clocks and counters must
// all be identical (DESIGN.md §7.6).
func TestPrefillOrder(t *testing.T) {
	for _, pc := range []prefillCase{
		{sliceBytes: 2 << 20, hints: 1, seed: 1},
		{sliceBytes: 1 << 20, hints: 12, seed: 2},
		{sliceBytes: 2 << 20, hints: 12, seed: 3, offset: 1 << 44},
		{sliceBytes: 1 << 20, hints: 1, seed: 4, offset: 3 << 44, preSeed: 9, holeEvery: 5},
		{sliceBytes: 2 << 20, hints: 12, seed: 5, preSeed: 10, holeEvery: 3, wsBytes: 256 << 10},
		{sliceBytes: 1 << 20, hints: 1, seed: 6, wsBytes: 64 * memreq.LineSize},
	} {
		pc.check(t)
	}
}

// FuzzPrefillOrder explores the bulk pre-fill's equivalence over seeds,
// slice sizes, hint counts, address offsets, pre-existing contents with
// invalidated holes, and working sets small enough to repeat draws.
func FuzzPrefillOrder(f *testing.F) {
	f.Add(uint64(1), false, false, uint8(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(7), true, true, uint8(2), uint64(3), uint8(4), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, twoMB, twelve bool, offset uint8, preSeed uint64, holeEvery, wsShift uint8) {
		pc := prefillCase{sliceBytes: 1 << 20, hints: 1, seed: seed, offset: uint64(offset%8) << 44}
		if twoMB {
			pc.sliceBytes = 2 << 20
		}
		if twelve {
			pc.hints = 12
		}
		if preSeed != 0 {
			pc.preSeed, pc.holeEvery = preSeed, 2+int(holeEvery%16)
		}
		if wsShift%32 != 0 {
			pc.wsBytes = memreq.LineSize << (wsShift % 32)
		}
		pc.check(t)
	})
}
