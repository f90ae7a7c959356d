package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coaxial/internal/memreq"
)

func small() *Cache {
	return New(Config{SizeBytes: 4 * 64 * 2, Assoc: 2, LatencyCycles: 4}) // 4 sets x 2 ways
}

func TestNewValidation(t *testing.T) {
	defertest := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(cfg)
		})
	}
	defertest("zero-assoc", Config{SizeBytes: 1024, Assoc: 0})
	defertest("non-divisible", Config{SizeBytes: 100, Assoc: 1})
	defertest("non-pow2-sets", Config{SizeBytes: 3 * 64, Assoc: 1})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x1000, false) {
		t.Error("cold lookup must miss")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Error("filled line must hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LatencyCycles: 1}) // 1 set, 2 ways
	c.Fill(0*64, false)
	c.Fill(1*64, false)
	c.Lookup(0*64, false) // touch 0: 1 is now LRU
	v := c.Fill(2*64, false)
	if !v.Valid || v.Addr != 1*64 {
		t.Errorf("expected eviction of line 1, got %+v", v)
	}
	if !c.Probe(0 * 64) {
		t.Error("MRU line evicted")
	}
}

func TestDirtyTracking(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 64, Assoc: 1, LatencyCycles: 1})
	c.Fill(0, false)
	c.Lookup(0, true) // store hit marks dirty
	v := c.Fill(64, false)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Errorf("dirty eviction expected, got %+v", v)
	}
	v2 := c.Fill(128, false)
	if v2.Dirty {
		t.Error("clean line evicted dirty")
	}
	st := c.Stats()
	if st.DirtyEvict != 1 || st.CleanEvict != 1 {
		t.Errorf("evict stats: %+v", st)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 64, Assoc: 1, LatencyCycles: 1})
	c.Fill(0, true) // RFO-style dirty install
	if v := c.Fill(64, false); !v.Dirty {
		t.Error("dirty install lost")
	}
}

func TestRefillRefreshesAndMerges(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LatencyCycles: 1})
	c.Fill(0, false)
	c.Fill(64, false)
	// Re-fill line 0 with dirty: no victim, dirty bit set, LRU refresh.
	if v := c.Fill(0, true); v.Valid {
		t.Errorf("refill produced victim %+v", v)
	}
	v := c.Fill(128, false) // should evict 64 (LRU), not 0
	if v.Addr != 64 {
		t.Errorf("evicted %#x, want 64", v.Addr)
	}
	v2 := c.Fill(192, false) // now 0 goes, dirty
	if v2.Addr != 0 || !v2.Dirty {
		t.Errorf("expected dirty 0, got %+v", v2)
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LatencyCycles: 1})
	c.Fill(0, false)
	c.Fill(64, false)
	before := c.Stats()
	c.Probe(0) // must not touch LRU or stats
	if c.Stats() != before {
		t.Error("probe mutated stats")
	}
	// 0 must still be LRU (fill order): eviction takes 0.
	if v := c.Fill(128, false); v.Addr != 0 {
		t.Errorf("probe changed LRU: evicted %#x", v.Addr)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Probe(0) {
		t.Error("line survived invalidate")
	}
	if p, _ := c.Invalidate(0xdead000); p {
		t.Error("invalidate of absent line reported present")
	}
}

// TestCapacityProperty: after any access sequence the cache never holds
// more valid lines than its capacity, and each set at most Assoc.
func TestCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 8 * 64 * 4, Assoc: 4, LatencyCycles: 1})
		for _, op := range ops {
			addr := uint64(op) * 64
			if !c.Lookup(addr, op%3 == 0) {
				c.Fill(addr, op%5 == 0)
			}
		}
		dirty, valid := c.DebugDirtyCount()
		return valid <= 8*4 && dirty <= valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInclusionOfRecentLines: with fewer distinct lines than capacity,
// everything filled remains resident.
func TestInclusionOfRecentLines(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 64 * 8, Assoc: 8, LatencyCycles: 1})
	rng := rand.New(rand.NewSource(5))
	lines := make([]uint64, 100) // 100 distinct lines << 512 capacity
	for i := range lines {
		lines[i] = uint64(rng.Intn(1<<20)) * 64
	}
	for _, l := range lines {
		if !c.Lookup(l, false) {
			c.Fill(l, false)
		}
	}
	for _, l := range lines {
		if !c.Probe(l) {
			t.Fatalf("line %#x evicted below capacity", l)
		}
	}
}

func TestLLCSliceMapping(t *testing.T) {
	l := NewLLC(12, 1<<20, 16, 20)
	if l.Slices() != 12 || l.Latency() != 20 {
		t.Fatalf("geometry: %d slices lat %d", l.Slices(), l.Latency())
	}
	// Stable mapping.
	for i := 0; i < 100; i++ {
		a := uint64(i) * 977 * 64
		if l.SliceOf(a) != l.SliceOf(a) {
			t.Fatal("slice mapping unstable")
		}
	}
	// Spread: sequential lines cover most slices.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[l.SliceOf(uint64(i)*64)] = true
	}
	if len(seen) < 10 {
		t.Errorf("sequential lines cover only %d/12 slices", len(seen))
	}
}

func TestLLCLookupFillStats(t *testing.T) {
	l := NewLLC(4, 64*64*4, 4, 20)
	if l.Lookup(0x5000, false) {
		t.Error("cold LLC lookup hit")
	}
	l.Fill(0x5000, false)
	if !l.Lookup(0x5000, false) {
		t.Error("LLC fill lost")
	}
	if !l.Probe(0x5000) {
		t.Error("LLC probe lost")
	}
	st := l.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Fills != 1 {
		t.Errorf("LLC stats: %+v", st)
	}
	l.ResetStats()
	if l.Stats().Accesses != 0 {
		t.Error("LLC stats reset")
	}
}

func TestLLCSingleSlice(t *testing.T) {
	l := NewLLC(1, 64*64, 4, 20)
	if l.SliceOf(0xABCDEF00) != 0 {
		t.Error("single-slice mapping")
	}
}

// TestSetIsolation: filling one set never evicts lines from another.
func TestSetIsolation(t *testing.T) {
	c := New(Config{SizeBytes: 16 * 64 * 2, Assoc: 2, LatencyCycles: 1})
	anchor := uint64(0)
	c.Fill(anchor, false)
	set0 := c.index(anchor >> memreq.LineShift)
	// Hammer a different set.
	hammered := 0
	for i := uint64(1); hammered < 64; i++ {
		a := i * 64
		if c.index(a>>memreq.LineShift) != set0 {
			c.Fill(a, false)
			hammered++
		}
	}
	if !c.Probe(anchor) {
		t.Error("cross-set eviction")
	}
}

// BenchmarkLLCPrefill measures a capacity pre-fill of a 12-slice, 24 MB
// LLC (1.3 fills per line, 30% dirty) through the bucketed bulk path.
func BenchmarkLLCPrefill(b *testing.B) {
	const fills = 511_000
	each := func(fill func(addr uint64, dirty bool)) {
		rng := uint64(1)
		for k := 0; k < fills; k++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			fill(1<<40+(rng%(1<<22))*memreq.LineSize, rng>>60 < 5)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewLLC(12, 2<<20, 16, 20).Prefill(each)
	}
}

// refFill is Fill as it was before the shared install path and the packed
// LRU min: one tag pass remembering the first invalid way, then a
// branching scan for the first way with the minimal stamp. Tests use it
// as the reference the production Fill must reproduce bit for bit.
func refFill(c *Cache, addr uint64, dirty bool) Victim {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	c.stats.Fills++
	inv := -1
	for i := range tags {
		t := tags[i]
		if t&^tagDirty == want {
			c.clock++
			c.stamps[base+i] = c.clock
			if dirty {
				tags[i] |= tagDirty
			}
			return Victim{}
		}
		if t&tagValid == 0 && inv < 0 {
			inv = i
		}
	}
	var out Victim
	vi := inv
	if vi < 0 {
		stamps := c.stamps[base : base+c.cfg.Assoc]
		vi = 0
		oldest := stamps[0]
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < oldest {
				oldest = stamps[i]
				vi = i
			}
		}
		out = Victim{Addr: tags[vi] >> tagShift << memreq.LineShift, Dirty: tags[vi]&tagDirty != 0, Valid: true}
		if out.Dirty {
			c.stats.DirtyEvict++
		} else {
			c.stats.CleanEvict++
		}
	}
	c.clock++
	t := want
	if dirty {
		t |= tagDirty
	}
	tags[vi] = t
	c.stamps[base+vi] = c.clock
	return out
}

// TestLRUWayMatchesScan checks the packed branch-free LRU min against the
// branching first-minimum scan, on stamp vectors dense with ties and
// spanning the whole uint32 range.
func TestLRUWayMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20_000; trial++ {
		stamps := make([]uint32, 1+rng.Intn(32))
		span := uint32(1 + rng.Intn(4))
		for i := range stamps {
			switch rng.Intn(3) {
			case 0:
				stamps[i] = uint32(rng.Intn(int(span)))
			case 1:
				stamps[i] = ^uint32(0) - uint32(rng.Intn(int(span)))
			default:
				stamps[i] = rng.Uint32()
			}
		}
		want := 0
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[want] {
				want = i
			}
		}
		if got := lruWay(stamps); got != want {
			t.Fatalf("stamps %v: lruWay %d, scan %d", stamps, got, want)
		}
	}
}

// TestFillMatchesReference drives the production Fill and refFill through
// the same random Lookup/Fill/Invalidate streams, with the LRU clock
// started just below its wrap so stamps tie and overflow, and requires
// identical victims and identical final state.
func TestFillMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New(Config{SizeBytes: 8 * 64 * 4, Assoc: 4, LatencyCycles: 1}) // 8 sets x 4 ways
		a.clock = ^uint32(0) - uint32(rng.Intn(400))
		b := a.Clone()
		for op := 0; op < 2_000; op++ {
			addr := uint64(rng.Intn(96)) * memreq.LineSize
			dirty := rng.Intn(3) == 0
			switch rng.Intn(4) {
			case 0:
				if a.Lookup(addr, dirty) != b.Lookup(addr, dirty) {
					t.Fatalf("seed %d op %d: lookups differ", seed, op)
				}
			case 1:
				a.Invalidate(addr)
				b.Invalidate(addr)
			default:
				if va, vb := a.Fill(addr, dirty), refFill(b, addr, dirty); va != vb {
					t.Fatalf("seed %d op %d: victim %+v, reference %+v", seed, op, va, vb)
				}
			}
		}
		if d := a.debugDiff(b); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestLLCPrefillMatchesDrawOrder checks the bucketed bulk fill against
// per-fill LLC.Fill in draw order, on LLCs that already hold dirty lines
// with invalidated holes, with many duplicate draws, and with slice
// clocks close to wrapping.
func TestLLCPrefillMatchesDrawOrder(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slices := 1 + rng.Intn(5)
		l := NewLLC(slices, 64<<10, 8, 20)
		for i, s := range l.slices {
			if i%2 == 1 {
				s.clock = ^uint32(0) - uint32(rng.Intn(5_000))
			}
		}
		lines := uint64(2_000 + rng.Intn(4_000))
		for k := 0; k < 3_000; k++ {
			l.Fill(uint64(rng.Int63n(int64(lines)))*memreq.LineSize, rng.Intn(2) == 0)
		}
		for k := 0; k < 400; k++ {
			addr := uint64(rng.Int63n(int64(lines))) * memreq.LineSize
			l.slices[l.SliceOf(addr)].Invalidate(addr)
		}
		draws := make([]uint64, 5_000+rng.Intn(10_000))
		for k := range draws {
			draws[k] = uint64(rng.Int63n(int64(lines)))<<1 | uint64(rng.Intn(2))
		}
		each := func(fill func(addr uint64, dirty bool)) {
			for _, d := range draws {
				fill(d>>1*memreq.LineSize, d&1 == 1)
			}
		}
		ref := l.Clone()
		each(func(addr uint64, dirty bool) { ref.Fill(addr, dirty) })
		l.Prefill(each)
		if d := l.DebugDiff(ref); d != "" {
			t.Fatalf("seed %d (%d slices): %s", seed, slices, d)
		}
	}
}
