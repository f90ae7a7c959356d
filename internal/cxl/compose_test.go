package cxl

import (
	"math/rand"
	"testing"

	"coaxial/internal/dram"
	"coaxial/internal/memreq"
)

// reqSpec is one request of a replayable stream.
type reqSpec struct {
	addr uint64
	kind memreq.Kind
	at   int64 // earliest offer cycle
}

// outcome is what one request's trip through the channel produced.
type outcome struct {
	done    int64 // completion cycle at the requester
	cxlTime int64
	spill   int64
}

type stamper struct{ done map[*memreq.Request]int64 }

func (s *stamper) Complete(r *memreq.Request, now int64) { s.done[r] = now }

// composeStream draws a mixed read/write stream aimed at few banks of the
// asym device's two DDR channels, offered in bursts, so ingress admission,
// both link directions, and DDR backpressure all engage.
func composeStream() []reqSpec {
	rng := rand.New(rand.NewSource(7))
	cfg := composeConfig()
	rowStride := uint64(cfg.DDR.RowBytes) * uint64(cfg.DDR.Banks())
	var out []reqSpec
	at := int64(1)
	for i := 0; i < 400; i++ {
		if i%16 == 0 {
			at += int64(rng.Intn(400))
		}
		kind := memreq.Read
		if rng.Intn(3) == 0 {
			kind = memreq.Write
		}
		addr := uint64(rng.Intn(6))*rowStride*2 + uint64(rng.Intn(64))*memreq.LineSize
		out = append(out, reqSpec{addr: addr, kind: kind, at: at})
	}
	return out
}

// composeConfig is the asym channel (two DDR channels behind one link)
// with tiny DDR queues and a shallow ingress, so device stalls happen.
func composeConfig() ChannelConfig {
	cfg := DefaultChannelConfig()
	cfg.Link = AsymmetricX8()
	cfg.DDRChannels = 2
	cfg.DDR.ReadQueueDepth = 2
	cfg.DDR.WriteQueueDepth = 2
	cfg.IngressDepth = 12
	return cfg
}

// replay offers the stream in order — a refused request blocks the ones
// behind it and is re-offered every cycle until accepted, as the
// simulator's spill queue does — and advances the channel with step,
// which returns the next cycle to visit.
func replay(t *testing.T, enqueue func(*memreq.Request, int64) bool, idle func() bool,
	step func(now int64, blocked bool) int64) ([]outcome, int64) {
	t.Helper()
	specs := composeStream()
	st := &stamper{done: map[*memreq.Request]int64{}}
	reqs := make([]*memreq.Request, len(specs))
	for i, sp := range specs {
		reqs[i] = &memreq.Request{Addr: sp.addr, Kind: sp.kind, Ret: st}
	}
	next := 0
	now := int64(1)
	for next < len(reqs) || !idle() {
		for next < len(reqs) && specs[next].at <= now && enqueue(reqs[next], now) {
			next++
		}
		blocked := next < len(reqs) && specs[next].at <= now
		to := step(now, blocked)
		if next < len(reqs) && specs[next].at < to {
			to = max(specs[next].at, now+1)
		}
		now = to
		if now > 50_000_000 {
			t.Fatal("stream did not drain")
		}
	}
	out := make([]outcome, len(reqs))
	for i, r := range reqs {
		d, ok := st.done[r]
		if !ok {
			t.Fatalf("request %d never completed", i)
		}
		out[i] = outcome{done: d, cxlTime: r.CXLTime, spill: r.Spill}
	}
	return out, now
}

// TestChannelCompositionEquivalence drives one request stream through the
// composed Channel three ways — Tick every cycle (twice, pinning the
// re-tick guard), Tick at NextEvent jumps with lazy DDR, and a rack-style
// bare Port.Tick then PooledDevice.TickDevice per cycle — and requires
// identical completion cycles, CXLTime, and Spill for every request.
func TestChannelCompositionEquivalence(t *testing.T) {
	cfg := composeConfig()
	subs := cfg.DDRChannels * cfg.DDR.SubChannels

	cycle := NewChannel(cfg, subs)
	cycle.SetLazy(false)
	want, _ := replay(t, cycle.Enqueue, cycle.Idle, func(now int64, _ bool) int64 {
		cycle.Tick(now)
		cycle.Tick(now) // an already-simulated cycle must be a no-op
		return now + 1
	})
	if cycle.LinkStats().RetryCycles == 0 {
		t.Fatal("stream produced no device stalls; the test would not exercise stalled retry")
	}

	event := NewChannel(cfg, subs)
	event.SetLazy(true)
	jumps := 0
	got, _ := replay(t, event.Enqueue, event.Idle, func(now int64, blocked bool) int64 {
		event.Tick(now)
		if blocked {
			return now + 1 // re-offer the refused request next cycle
		}
		next := event.NextEvent(now)
		if next > now+1 {
			jumps++
		}
		return next
	})
	if jumps == 0 {
		t.Error("event-driven replay never skipped a cycle")
	}
	compareOutcomes(t, "NextEvent jumps", want, got)

	dev := NewPooledDevice(PooledDeviceConfig{DDR: cfg.DDR, DDRChannels: cfg.DDRChannels}, subs)
	port := dev.AttachHost(cfg.Link, cfg.IngressDepth, 0)
	got, _ = replay(t, port.Enqueue, port.Idle, func(now int64, _ bool) int64 {
		port.Tick(now)
		dev.TickDevice(now)
		return now + 1
	})
	compareOutcomes(t, "Port.Tick+TickDevice", want, got)

	for name, s := range map[string]Stats{"event": event.LinkStats(), "rack-style": port.LinkStats()} {
		if s != cycle.LinkStats() {
			t.Errorf("%s link stats %+v, want %+v", name, s, cycle.LinkStats())
		}
	}
	for name, c := range map[string]dram.Counters{"event": event.Counters(), "rack-style": port.Counters()} {
		if c.RD != cycle.Counters().RD || c.WR != cycle.Counters().WR {
			t.Errorf("%s device RD/WR %d/%d, want %d/%d", name, c.RD, c.WR, cycle.Counters().RD, cycle.Counters().WR)
		}
	}
}

func compareOutcomes(t *testing.T, mode string, want, got []outcome) {
	t.Helper()
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("%s: request %d = %+v, want %+v", mode, i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%s: %d of %d requests differ", mode, bad, len(want))
	}
}
