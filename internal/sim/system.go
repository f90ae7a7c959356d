package sim

import (
	"context"
	"fmt"

	"coaxial/internal/cache"
	"coaxial/internal/calm"
	"coaxial/internal/cpu"
	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/memreq"
	"coaxial/internal/noc"
	"coaxial/internal/stats"
	"coaxial/internal/trace"
)

// ExternalBackend is the full memory-backend surface a System requires of
// its channels: a memreq.Backend that also exposes DRAM activity counters
// and a drain check. dram.Channel, cxl.Port, and cxl.Channel (a Port on a
// private device) satisfy it.
// Exported so topology builders (internal/rack) can inject pre-built
// backends — ports into shared pooled devices — via HostParams.
type ExternalBackend interface {
	memreq.Backend
	Counters() dram.Counters
	ResetCounters()
	Idle() bool
}

// Clocking selects the main loop's time-advance strategy.
type Clocking uint8

const (
	// EventDriven (the default) advances the clock straight to the
	// earliest cycle any component reports it can make progress
	// (NextEvent), ticking only the components due at that cycle. Skipped
	// cycles are provable no-ops, and each component catches up its
	// per-cycle accounting on its next tick, so results are bit-identical
	// to CycleByCycle (see TestClockingEquivalence).
	EventDriven Clocking = iota
	// CycleByCycle ticks every core and backend on every cycle — the
	// straightforward reference loop, kept as the equivalence oracle.
	CycleByCycle
)

// spillItem is a request refused by a full backend ingress queue, held for
// in-order retry.
type spillItem struct {
	//lint:owns released through the normal send path once flushSpill re-enqueues it
	r  *memreq.Request
	at int64
}

// memEvent is one beyond-L2 action a core produced during the core tick
// phase, buffered for the drain at the cycle barrier. Cores only touch
// their private L1/L2 inline; everything that reaches shared state — the
// LLC, the CALM policy, the NoC send path — is deferred here and applied
// after every core has ticked, in fixed core order. That ordering is part
// of the model's same-cycle semantics (the golden corpus pins it).
type memEvent struct {
	kind  uint8 // evAccess or evVictim
	store bool
	line  uint64
	pc    uint64
	t2    int64 // the L2-miss cycle (the paper's datum) for evAccess
}

const (
	// evAccess is an L1+L2 miss headed for the LLC lookup (accessLLC).
	evAccess = iota
	// evVictim is a dirty L2 victim displaced by an L2-hit install,
	// headed for the LLC (l2VictimToLLC).
	evVictim
)

// retirer is a backend that buffers requests dying inside it (writes whose
// CAS retired with no completion callback) for the sequential retired
// drain; dram.Channel and cxl.Port (hence cxl.Channel) satisfy it.
type retirer interface {
	SetCollectRetired(bool)
	DrainRetired(func(*memreq.Request))
}

// System is one assembled simulated machine.
type System struct {
	cfg  Config
	mesh noc.Mesh

	cores []*cpu.Core
	l1    []*cache.Cache
	l2    []*cache.Cache
	llc   *cache.LLC

	backends  []ExternalBackend
	portTiles []noc.Tile
	coreTiles []noc.Tile
	iv        memreq.Interleave

	policy calm.Policy

	// spill holds requests refused by full backend queues, per channel and
	// split by kind so writes cannot head-of-line-block reads.
	spillR [][]spillItem
	spillW [][]spillItem
	// spillPending counts queued spill items across all channels, so the
	// per-cycle paths can skip the per-channel scans when it is zero (the
	// common case).
	spillPending int

	// prefillHints, when non-nil, drives synthetic LLC pre-fill.
	prefillHints []trace.Params

	measuring bool
	// muteWrites suppresses write-back requests during functional warmup
	// (the memory system is not being timed yet).
	muteWrites bool
	breakdown  stats.Breakdown
	hist       *stats.Histogram
	// fpDiscarded counts CALM false-positive responses dropped on arrival.
	fpDiscarded uint64

	clocking Clocking
	// coreNext/backendNext cache each component's NextEvent: the earliest
	// cycle its Tick could make progress. Entries are refreshed whenever
	// the component ticks and clamped down by wake events (a completion
	// unblocking a core, an enqueue scheduling a backend arrival).
	coreNext    []int64
	backendNext []int64

	// coreEvents holds per-core buffers of beyond-L2 work generated during
	// the core tick phase, drained at the cycle barrier (see step and
	// tickEventCycle) in both clocking modes.
	coreEvents [][]memEvent

	// touchSink keeps Access's LLC metadata pre-touch loads observable so
	// the compiler cannot elide them.
	touchSink uint64

	// arena recycles memreq.Request allocations: every request the system
	// creates (LLC-miss reads, CALM probes, write-backs) is arena-allocated
	// and released at its death point — reads at their completion callback,
	// writes when the backends' retired drain hands them back — so a loaded
	// steady-state window allocates nothing per request. All alloc/release
	// sites run on the simulation goroutine (the drain phases and the
	// backend ticks' inline completions), so the arena needs no locking.
	arena *memreq.Arena
	// retirers are the backends that buffer requests dying inside them
	// (write CAS retirements with no completer); drainRetired releases
	// those at the cycle barrier. retirerOf indexes the same backends by
	// channel so the event loop can drain only the backends that ticked —
	// a request can only retire during its backend's tick, so un-ticked
	// backends provably buffered nothing. retireFn is the pre-bound
	// release callback (building a method value per cycle would allocate).
	retirers  []retirer
	retirerOf []retirer
	retireFn  func(*memreq.Request)
	// llcProbe is the preallocated CALM probe closure over probeLLCHit;
	// accessLLC stores the current lookup's outcome in the field and hands
	// every Decide call the same closure (see the comment there).
	llcProbe    func() bool
	probeLLCHit bool

	// progressFn, when non-nil, observes phase progress at cancellation-
	// poll boundaries (RunConfig.OnProgress; observation-only).
	progressFn func(Progress)

	// val, when non-nil, is the differential validation harness attached
	// by EnableValidation (RunConfig.Validate): timing oracles on every
	// DRAM sub-channel plus the request-lifecycle checker hooked into
	// send/Complete.
	val *validation
	// extraPending are additional pending-request walkers registered by a
	// topology builder (AddPendingWalker): requests this host owns that
	// live outside its backends' own queues — e.g. inside a shared pooled
	// device's DDR controllers, which the rack walks once per device and
	// dispatches by Request.Host.
	extraPending []func(func(*memreq.Request))

	// hostID tags every request this system creates (Request.Host) and
	// addrOffset displaces its synthetic address space, so several hosts
	// sharing pooled devices stay distinguishable and non-overlapping.
	// Zero for single-host systems.
	hostID     int16
	addrOffset uint64

	// Sampled-simulation state (runMeasureSampled): detailCycles sums the
	// cycles spent in detailed measurement windows (the denominator for
	// sampled rates); ffAccesses/ffMisses track the LLC statistics pollution
	// of the functional fast-forward streams, subtracted at collection.
	sampled      bool
	detailCycles int64
	ffAccesses   uint64
	ffMisses     uint64

	// dueCores/dueBackends are reused scratch lists of the components due
	// at the cycle stepEvent selected.
	dueCores    []int
	dueBackends []int

	now int64
}

// HostParams identifies a System's place in a multi-host topology. The
// zero value is a standalone single-host system.
type HostParams struct {
	// Index is the host's rack position; it tags every request the system
	// creates (Request.Host) for fairness accounting and validation walks
	// over shared device queues.
	Index int
	// AddrOffset displaces the host's synthetic address space so hosts
	// sharing pooled devices occupy disjoint physical ranges. Host 0's
	// offset must be 0 for single-host bit-identity.
	AddrOffset uint64
	// Backends, when non-nil, are pre-built memory backends injected in
	// channel order (len must equal cfg.Channels): ports into shared
	// pooled CXL devices. Nil builds the config's own private backends.
	Backends []ExternalBackend
}

// NewSystem assembles a system running the given per-core workloads
// (len(workloads) must equal the active core count; inactive cores idle).
func NewSystem(cfg Config, workloads []trace.Workload, seed uint64) (*System, error) {
	return NewHostSystem(cfg, workloads, seed, HostParams{})
}

// NewHostSystem is NewSystem for a host embedded in a multi-host topology:
// hp places the host's address space, tags its requests, and (for pooled
// topologies) injects its shared-device ports.
func NewHostSystem(cfg Config, workloads []trace.Workload, seed uint64, hp HostParams) (*System, error) {
	active := cfg.active()
	if len(workloads) != active {
		return nil, fmt.Errorf("sim: %d workloads for %d active cores", len(workloads), active)
	}
	gens := make([]trace.Generator, active)
	hints := make([]trace.Params, active)
	for i, w := range workloads {
		base := hp.AddrOffset + (uint64(i)+1)<<40 // disjoint per-instance address spaces
		gens[i] = trace.NewSynthetic(w.Params, base, seed*1_000_003+uint64(i)+1)
		hints[i] = w.Params
	}
	return newSystemGens(cfg, gens, hints, hp, nil)
}

// NewSystemGens assembles a system over caller-provided instruction
// generators (e.g. recorded trace replays). hints, when non-nil, supplies
// per-core workload parameters used for LLC pre-fill and the dispatch-rate
// cap; pass nil to skip pre-fill (then provide enough warmup in the trace
// itself).
func NewSystemGens(cfg Config, gens []trace.Generator, hints []trace.Params) (*System, error) {
	return newSystemGens(cfg, gens, hints, HostParams{}, nil)
}

// newSystemGens assembles the system. warm, when non-nil, supplies the
// caches: the system is built around clones of the snapshot's, so a warm
// restore never allocates caches it would throw away.
func newSystemGens(cfg Config, gens []trace.Generator, hints []trace.Params, hp HostParams, warm *WarmState) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	active := cfg.active()
	if len(gens) != active {
		return nil, fmt.Errorf("sim: %d generators for %d active cores", len(gens), active)
	}
	if hints != nil && len(hints) != active {
		return nil, fmt.Errorf("sim: %d prefill hints for %d active cores", len(hints), active)
	}

	if hp.Backends != nil && len(hp.Backends) != cfg.Channels {
		return nil, fmt.Errorf("sim: %d injected backends for %d channels", len(hp.Backends), cfg.Channels)
	}

	s := &System{
		cfg:        cfg,
		mesh:       cfg.Mesh,
		iv:         memreq.Interleave{Channels: cfg.Channels},
		hist:       stats.NewHistogram(6000, 4), // up to 2.5 us at 1.67 ns buckets
		hostID:     int16(hp.Index),
		addrOffset: hp.AddrOffset,
	}

	// Private caches exist for active cores only: an inactive core never
	// accesses memory.
	if warm != nil {
		s.l1, s.l2, s.llc = warm.cloneCaches()
	} else {
		s.llc = cache.NewLLC(cfg.Cores, cfg.LLCSliceBytes, cfg.LLCAssoc, cfg.LLCLatency)
		for i := 0; i < active; i++ {
			s.l1 = append(s.l1, cache.New(cfg.L1))
			s.l2 = append(s.l2, cache.New(cfg.L2))
		}
	}

	// Memory backends and their mesh-perimeter port placement.
	systemSubs := cfg.Channels * cfg.DDR.SubChannels
	if cfg.Kind == CXLAttached {
		systemSubs = cfg.Channels * cfg.CXL.DDRChannels * cfg.DDR.SubChannels
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		switch {
		case hp.Backends != nil:
			s.backends = append(s.backends, hp.Backends[ch])
		case cfg.Kind == DirectDDR:
			s.backends = append(s.backends, dram.NewChannel(cfg.DDR, systemSubs))
		case cfg.Kind == CXLAttached:
			ccfg := cfg.CXL
			ccfg.DDR = cfg.DDR
			s.backends = append(s.backends, cxl.NewChannel(ccfg, systemSubs))
		}
		s.portTiles = append(s.portTiles, cfg.Mesh.PortTile(ch, cfg.Channels))
	}
	s.spillR = make([][]spillItem, cfg.Channels)
	s.spillW = make([][]spillItem, cfg.Channels)

	s.policy = calm.New(cfg.CALM, cfg.Cores, s.peakGBs())

	for i := 0; i < cfg.Cores; i++ {
		s.coreTiles = append(s.coreTiles, cfg.Mesh.CoreTile(i))
	}
	for i := 0; i < active; i++ {
		ipcCap := 0.0
		if hints != nil {
			ipcCap = hints[i].IPCCap
		}
		s.cores = append(s.cores, cpu.New(i, gens[i], s, cfg.MSHRs, ipcCap))
	}
	s.prefillHints = hints
	s.coreNext = make([]int64, len(s.cores))
	s.backendNext = make([]int64, len(s.backends))
	for i := range s.coreNext {
		s.coreNext[i] = 1
	}
	for i := range s.backendNext {
		s.backendNext[i] = 1
	}
	s.coreEvents = make([][]memEvent, len(s.cores))
	s.arena = memreq.NewArena()
	s.retireFn = s.releaseRetired
	s.llcProbe = func() bool { return s.probeLLCHit }
	s.retirerOf = make([]retirer, len(s.backends))
	for ch, b := range s.backends {
		if rt, ok := b.(retirer); ok {
			rt.SetCollectRetired(true)
			s.retirers = append(s.retirers, rt)
			s.retirerOf[ch] = rt
		}
	}
	s.SetClocking(s.clocking) // apply the default mode's lazy ticking
	return s, nil
}

// releaseRetired is the retired-drain callback: a request died inside a
// backend (write CAS with no completer), so release its tracking and
// return it to the arena.
func (s *System) releaseRetired(r *memreq.Request) {
	if s.val != nil {
		s.val.lc.OnRetire(r)
	}
	s.arena.Release(r)
}

// drainRetired releases every request that died inside a backend this
// cycle. Runs at the cycle barrier after the backend ticks.
func (s *System) drainRetired() {
	for _, rt := range s.retirers {
		rt.DrainRetired(s.retireFn)
	}
}

// SetClocking selects the time-advance strategy; the zero value is
// EventDriven. Backends that support per-sub-component event skipping
// (dram.Channel, cxl.Port, cxl.Channel) follow the mode: lazy under EventDriven so
// busy channels skip their inert sub-channels, naive under CycleByCycle so
// the reference loop really does tick everything every cycle. Switching
// after stepping has begun is unsupported.
func (s *System) SetClocking(m Clocking) {
	s.clocking = m
	for _, b := range s.backends {
		if lt, ok := b.(interface{ SetLazy(bool) }); ok {
			lt.SetLazy(m == EventDriven)
		}
	}
}

// SetProgress attaches a phase-progress observer (RunConfig.OnProgress):
// runPhase invokes it at every cancellation-poll boundary and once at
// phase end. Observation-only — a nil fn (the default) disables emission,
// and measurements are bit-identical either way.
func (s *System) SetProgress(fn func(Progress)) { s.progressFn = fn }

// PhaseRetired returns the slowest core's retirement count toward target,
// capped at target (cores that finish early keep executing to sustain
// memory pressure, but no longer advance phase progress). Counted from the
// last stats reset, like the target itself.
func (s *System) PhaseRetired(target uint64) uint64 {
	min := target
	for _, c := range s.cores {
		r := c.Stats().Retired
		if r < min {
			min = r
		}
	}
	return min
}

// emitProgress delivers one observation to the attached observer; start is
// the cycle the current phase began.
func (s *System) emitProgress(target uint64, start int64) {
	p := Progress{Phase: "warmup", Cycles: s.now - start, Retired: s.PhaseRetired(target), Target: target}
	if s.measuring {
		p.Phase = "measure"
	}
	s.progressFn(p)
}

// peakGBs sums backend peak bandwidths.
func (s *System) peakGBs() float64 {
	var total float64
	switch s.cfg.Kind {
	case DirectDDR:
		total = float64(s.cfg.Channels) * s.cfg.DDR.PeakGBs()
	case CXLAttached:
		total = float64(s.cfg.Channels*s.cfg.CXL.DDRChannels) * s.cfg.DDR.PeakGBs()
	}
	return total
}

// chOf maps an address to its memory channel.
func (s *System) chOf(addr uint64) int { return s.iv.ChannelOf(addr) }

// Access implements cpu.Hierarchy: the private L1 -> L2 path for a first
// access to a line, inline; anything beyond the L2 — LLC, CALM, memory —
// touches state shared between cores, so it is buffered as a memEvent for
// the drain at the cycle barrier (accessLLC) and reported Async: the core
// parks the access in an MSHR and the barrier resolves same-cycle LLC hits
// before the next cycle begins. Access therefore only mutates per-core
// state.
func (s *System) Access(core int, addr, pc uint64, store bool, now int64) cpu.PathResult {
	line := memreq.LineAddr(addr)

	if s.l1[core].Lookup(line, store) {
		return cpu.PathResult{When: now + s.l1[core].Latency()}
	}
	t1 := now + s.l1[core].Latency()

	if s.l2[core].Lookup(line, store) {
		// Move up to L1 (write-allocate); victim may cascade.
		s.installL1Buffered(core, line, store)
		return cpu.PathResult{When: t1 + s.l2[core].Latency()}
	}
	t2 := t1 + s.l2[core].Latency() // the L2 miss register (paper's datum)

	s.coreEvents[core] = append(s.coreEvents[core], memEvent{
		kind: evAccess, store: store, line: line, pc: pc, t2: t2,
	})
	// The barrier drain will probe this line's LLC home set; start the
	// host-memory fetch of that (multi-megabyte, rarely cached) way
	// metadata now so the Lookup there finds it in flight. Touch reads
	// without mutating, so it cannot reorder the barrier's shared-state
	// operations; the sink keeps the loads observable.
	s.touchSink += s.llc.Touch(line)
	return cpu.PathResult{Async: true}
}

// accessLLC performs the shared-state half of one buffered access — the
// CALM decision and the LLC -> memory path — during the barrier drain.
// It reports whether the access resolved as an LLC hit (the core's MSHR
// was released, so its cached next event must be recomputed).
func (s *System) accessLLC(core int, ev *memEvent) bool {
	line, t2 := ev.line, ev.t2
	sliceIdx := s.llc.SliceOf(line)
	sliceTile := s.coreTiles[sliceIdx]
	nocTo := s.mesh.Latency(s.coreTiles[core], sliceTile)
	llcHit := s.llc.Lookup(line, false)

	doCALM := false
	if s.cfg.CALM.Kind != calm.Off {
		// The probe is a preallocated closure over s.probeLLCHit: handing
		// Decide a fresh `func() bool { return llcHit }` would heap-allocate
		// one closure per L2 miss (escape analysis cannot see through the
		// policy interface), the single largest allocation source in a
		// loaded window.
		s.probeLLCHit = llcHit
		doCALM = s.policy.Decide(core, ev.pc, t2, s.llcProbe)
	}
	s.policy.Observe(core, ev.pc, llcHit, doCALM)

	ch := s.chOf(line)
	portTile := s.portTiles[ch]

	if llcHit {
		when := t2 + nocTo + s.llc.Latency() + nocTo
		// Release the MSHR the core parked this access in; same-cycle
		// stores to the line merged into it, so the pending entry's dirty
		// bit subsumes ev.store.
		dirty := s.cores[coreSlot(s, core)].ResolveMiss(line, when)
		s.installPrivate(core, line, dirty, when)
		if doCALM {
			// False positive: the concurrent memory request was already
			// launched; its response will be discarded on arrival.
			r := s.arena.Alloc()
			r.Addr, r.Kind, r.Core, r.Host = line, memreq.Read, int16(core), s.hostID
			r.CALM, r.Discard, r.Issue = true, true, t2
			r.Ret = s
			s.send(r, ch, t2+s.mesh.Latency(s.coreTiles[core], portTile))
		}
		if s.measuring {
			s.breakdown.Add(when-t2, 0, 0, 0)
			s.hist.Add(when - t2)
		}
		return true
	}

	// LLC miss: go to memory. The LLC's (miss) response still returns to
	// the L2; a CALM access may not complete before it (coherence rule).
	llcAck := t2 + nocTo + s.llc.Latency() + nocTo
	r := s.arena.Alloc()
	r.Addr, r.Kind, r.Core, r.Host = line, memreq.Read, int16(core), s.hostID
	r.CALM, r.Issue = doCALM, t2
	r.Ret = s
	var at int64
	if doCALM {
		at = t2 + s.mesh.Latency(s.coreTiles[core], portTile)
		r.AckAt = llcAck
	} else {
		at = t2 + nocTo + s.llc.Latency() + s.mesh.Latency(sliceTile, portTile)
	}
	s.send(r, ch, at)
	return false
}

// drainCoreEvents applies the buffered beyond-L2 work in fixed core order
// (and, per core, in generation order), reproducing exactly the
// shared-state operation order of a sequential core loop. Cores whose
// accesses resolved as LLC hits get their cached next event recomputed
// under event-driven clocking: the resolution freed MSHRs and scheduled
// ROB completions after the core's own tick computed it.
func (s *System) drainCoreEvents(event bool) {
	for i := range s.coreEvents {
		evs := s.coreEvents[i]
		if len(evs) == 0 {
			continue
		}
		for k := range evs {
			ev := &evs[k]
			if ev.kind == evVictim {
				s.l2VictimToLLC(ev.line, s.now)
			} else {
				s.accessLLC(i, ev)
			}
		}
		s.coreEvents[i] = evs[:0]
		if event {
			// The tick phase skipped this core's NextEvent because its
			// buffered accesses could resolve here; compute it now, over
			// the post-drain state.
			s.coreNext[i] = s.cores[i].NextEvent(s.now)
		}
	}
}

// Complete implements memreq.Completer: memory data arrived back at the
// processor (direct DDR: straight from the controller; CXL: after the
// response path). Backends call it inline from their Tick, in channel
// order and, per sub-channel, in pop order; any request a delivery
// re-enqueues targets a future arrival cycle (the mesh hop is never zero),
// so no same-cycle pop can observe it.
func (s *System) Complete(r *memreq.Request, now int64) {
	if s.val != nil {
		s.val.lc.OnComplete(r, now) //lint:alloc validation hook; allocates only when recording an invariant failure
	}
	if r.Kind == memreq.Write {
		return // writes die in the backends; the retired drain releases them
	}
	if r.Discard {
		s.fpDiscarded++
		s.arena.Release(r)
		return
	}
	core := int(r.Core)
	line := memreq.LineAddr(r.Addr)
	nocBack := s.mesh.Latency(s.portTiles[s.chOf(line)], s.coreTiles[core])
	when := now + nocBack + s.cfg.FillLatency
	if r.AckAt > when {
		when = r.AckAt
	}

	slot := coreSlot(s, core)
	dirty := s.cores[slot].ResolveMiss(line, when)
	// The fill may unblock the core (MSHR freed, ROB head completion
	// scheduled): make sure it ticks next cycle, whatever its cached
	// NextEvent said. Complete always runs in the backend phase of cycle
	// s.now, after the cores ticked, so s.now+1 is the first cycle the
	// core could observe the fill — exactly as in cycle-by-cycle mode.
	s.wakeCore(slot, s.now+1)
	s.fillFromMemory(core, line, dirty, now)

	if s.measuring {
		total := when - r.Issue
		queue := r.QueueDelay() + r.Spill
		service := r.ServiceTime()
		onchip := total - queue - service - r.CXLTime
		s.breakdown.Add(onchip, queue, service, r.CXLTime)
		s.hist.Add(total)
	}
	// The read's life ends here: nothing holds it any longer (the backends
	// popped it on delivery, the MSHR is keyed by line, and the lifecycle
	// checker released its tracking above), so recycle the slot.
	s.arena.Release(r)
}

// coreSlot maps a core ID to its index in s.cores (identical while
// inactive cores are always the trailing ones).
func coreSlot(s *System, id int) int { return id }

// fillFromMemory installs a returning line in the LLC and private levels.
func (s *System) fillFromMemory(core int, line uint64, dirty bool, now int64) {
	v := s.llc.Fill(line, false)
	if v.Valid && v.Dirty {
		s.writeback(v.Addr, now)
	}
	s.installPrivate(core, line, dirty, now)
}

// installPrivate fills L2 then L1, cascading dirty victims downward.
func (s *System) installPrivate(core int, line uint64, dirty bool, now int64) {
	if v := s.l2[core].Fill(line, dirty); v.Valid && v.Dirty {
		s.l2VictimToLLC(v.Addr, now)
	}
	s.installL1(core, line, dirty)
}

// installL1 fills L1; its dirty victims land in the L2 (which may in turn
// displace a victim to the LLC; timestamps use the current tick). Not for
// the core tick phase, which must leave the LLC to the drain (see
// installL1Buffered).
func (s *System) installL1(core int, line uint64, dirty bool) {
	if v := s.l1[core].Fill(line, dirty); v.Valid && v.Dirty {
		if v2 := s.l2[core].Fill(v.Addr, true); v2.Valid && v2.Dirty {
			s.l2VictimToLLC(v2.Addr, s.now)
		}
	}
}

// installL1Buffered is installL1 for the core tick phase: a dirty L2
// victim is buffered for the barrier drain instead of being written to the
// shared LLC inline.
func (s *System) installL1Buffered(core int, line uint64, dirty bool) {
	if v := s.l1[core].Fill(line, dirty); v.Valid && v.Dirty {
		if v2 := s.l2[core].Fill(v.Addr, true); v2.Valid && v2.Dirty {
			s.coreEvents[core] = append(s.coreEvents[core], memEvent{
				kind: evVictim, line: v2.Addr,
			})
		}
	}
}

// l2VictimToLLC absorbs a dirty L2 victim into the LLC (non-inclusive
// victim write-back); a dirty LLC victim goes to memory.
func (s *System) l2VictimToLLC(addr uint64, now int64) {
	if v := s.llc.Fill(addr, true); v.Valid && v.Dirty {
		s.writeback(v.Addr, now)
	}
}

// writeback sends a dirty 64B line to memory.
func (s *System) writeback(addr uint64, now int64) {
	if s.muteWrites {
		return
	}
	ch := s.chOf(addr)
	r := s.arena.Alloc()
	r.Addr, r.Kind, r.Core, r.Issue = addr, memreq.Write, -1, now
	r.Host = s.hostID
	sliceTile := s.coreTiles[s.llc.SliceOf(addr)]
	s.send(r, ch, now+s.mesh.Latency(sliceTile, s.portTiles[ch]))
}

// wakeCore clamps a core's cached next-event cycle down to `at`.
func (s *System) wakeCore(slot int, at int64) {
	if at < s.coreNext[slot] {
		s.coreNext[slot] = at
	}
}

// wakeBackend clamps a backend's cached next-event cycle down to `at` (the
// arrival cycle of a freshly enqueued request).
func (s *System) wakeBackend(ch int, at int64) {
	if at < s.backendNext[ch] {
		s.backendNext[ch] = at
	}
}

// send enqueues a request, spilling to the retry queue on backpressure.
// It runs only in the drain phases and inline completions (accessLLC,
// writeback, Complete), never inside a core tick.
func (s *System) send(r *memreq.Request, ch int, at int64) {
	if s.val != nil {
		s.val.lc.OnIssue(r, at) //lint:alloc validation hook; allocates only when recording an invariant failure
	}
	q := &s.spillR[ch]
	if r.Kind == memreq.Write {
		q = &s.spillW[ch]
	}
	if len(*q) == 0 && s.backends[ch].Enqueue(r, at) {
		s.wakeBackend(ch, at)
		return
	}
	*q = append(*q, spillItem{r: r, at: at})
	s.spillPending++
}

// flushSpill retries refused requests in FIFO order per kind.
func (s *System) flushSpill(now int64) {
	if s.spillPending == 0 {
		return
	}
	for ch := range s.backends {
		s.flushOne(&s.spillR[ch], ch, now)
		s.flushOne(&s.spillW[ch], ch, now)
	}
}

func (s *System) flushOne(qp *[]spillItem, ch int, now int64) {
	q := *qp
	n := 0
	for n < len(q) {
		it := q[n]
		at := it.at
		if at < now {
			at = now
		}
		if !s.backends[ch].Enqueue(it.r, at) {
			break
		}
		s.wakeBackend(ch, at)
		it.r.Spill += at - it.at
		n++
	}
	if n > 0 {
		*qp = q[n:]
		s.spillPending -= n
	}
}

// step advances the whole system one cycle (CycleByCycle mode). The cycle
// is phased: core ticks (private state only, buffering beyond-L2 work),
// core-event drain and spill retry at the barrier, backend ticks
// (delivering completions inline), retired drain.
func (s *System) step() {
	s.now++
	now := s.now
	for _, c := range s.cores {
		c.Tick(now)
	}
	s.drainCoreEvents(false)
	s.flushSpill(now)
	for _, b := range s.backends {
		b.Tick(now)
	}
	s.drainRetired()
}

// stepEvent advances the clock to the earliest cached component event (at
// most `limit`) and ticks only the components due there. Components whose
// NextEvent lies beyond the chosen cycle are provably inert across the
// jump, so skipping their ticks — and the whole-system cycles where nobody
// is due — leaves simulated behaviour bit-identical to step(). Phase order
// within the chosen cycle matches step(): cores, core-event drain, spill
// retry, backends, retired drain. While any spill queue is non-empty
// the jump degrades to a single cycle, because spill retry timing depends
// on backend dequeues the caches can't see.
func (s *System) stepEvent(limit int64) {
	s.tickEventCycle(s.nextEventBound(limit))
}

// nextEventBound returns the cycle stepEvent would advance to given the
// budget limit: the earliest cached component event, degraded to now+1
// while spill retries are pending, clamped to (now, limit]. A rack driver
// folds each host's bound (and the pooled devices' NextEvents) into one
// global minimum so all hosts advance in lockstep.
func (s *System) nextEventBound(limit int64) int64 {
	next := limit
	if s.spillPending > 0 {
		next = s.now + 1
	} else {
		for _, t := range s.coreNext {
			if t < next {
				next = t
			}
		}
		for _, t := range s.backendNext {
			if t < next {
				next = t
			}
		}
	}
	if next <= s.now {
		next = s.now + 1
	}
	return next
}

// tickEventCycle simulates exactly the chosen cycle `next` (> now): the
// event-driven step body after the cycle choice.
func (s *System) tickEventCycle(next int64) {
	s.now = next

	due := s.dueCores[:0]
	for i := range s.cores {
		if s.coreNext[i] <= next {
			due = append(due, i)
		}
	}
	s.dueCores = due
	// Cores that buffered beyond-L2 work this tick get their NextEvent
	// computed after the drain instead (the barrier may resolve their
	// accesses, freeing MSHRs); computing it here too would be wasted.
	for _, i := range due {
		s.cores[i].Tick(next)
		if len(s.coreEvents[i]) == 0 {
			s.coreNext[i] = s.cores[i].NextEvent(next)
		}
	}
	s.drainCoreEvents(true)
	s.flushSpill(next)

	due = s.dueBackends[:0]
	for ch := range s.backends {
		if s.backendNext[ch] <= next {
			due = append(due, ch)
		}
	}
	s.dueBackends = due
	for _, ch := range due {
		s.backends[ch].Tick(next)
		s.backendNext[ch] = s.backends[ch].NextEvent(next)
	}
	// Only ticked backends can have buffered retired requests this cycle.
	for _, ch := range s.dueBackends {
		if rt := s.retirerOf[ch]; rt != nil {
			rt.DrainRetired(s.retireFn)
		}
	}
}

// syncClock realizes every component's lagging bulk accounting at the
// current cycle before counters are read or reset. Under event-driven
// clocking a component's local clock may lag the system clock (it was
// provably inert in between). Neither cores nor backends are re-Ticked,
// because s.now's tick phases are over: a lagging core can have had an
// MSHR freed by a fill in s.now's backend phase, and re-Ticking it would
// issue a deferred access the cycle-by-cycle loop only issues at s.now+1
// (into an event buffer nothing drains); a lagging backend can hold work
// enqueued at s.now *after* its tick-order slot (a write-back from a
// later-ordered backend's completion), likewise processed only at s.now+1.
// Core.SyncTo applies the stall catch-up the cycle-by-cycle loop would
// have accrued through s.now; backend Sync realizes the background
// integration (sub-channel ActiveBankCycles). Neither simulates an event.
func (s *System) syncClock() {
	for _, c := range s.cores {
		c.SyncTo(s.now)
	}
	for _, b := range s.backends {
		b.Sync(s.now)
	}
}

// prefillLLC synthesizes steady-state LLC content directly: the LLC is
// filled to capacity with addresses drawn from each core's cold-access
// distribution, dirty at the workload's store probability. Reaching this
// state through simulation alone would need tens of millions of warmup
// instructions for low-MPKI workloads (the LLC holds ~375k lines); the
// paper's 50M-instruction warmup serves the same role. Without a full LLC
// there are no evictions, hence no write-back traffic, in short windows.
//
// The fills hit random sets across megabytes of way metadata, so applied
// one at a time in draw order they serialize on host-memory latency.
// LLC.Prefill applies them in cache order instead, with the state the
// draw-order loop would leave (DESIGN.md §7.6).
func (s *System) prefillLLC(hints []trace.Params, seed uint64) {
	s.llc.Prefill(s.prefillDraws(hints, seed))
}

// prefillDraws returns the pre-fill sequence: each call of the result
// replays the same (address, dirty) draws, in draw order, into fill.
func (s *System) prefillDraws(hints []trace.Params, seed uint64) func(fill func(addr uint64, dirty bool)) {
	totalLines := 0
	for i := 0; i < s.llc.Slices(); i++ {
		totalLines += s.llc.Slice(i).Sets() * s.cfg.LLCAssoc
	}
	// Per-core weights proportional to cold-line fill rates.
	weights := make([]float64, len(hints))
	var wsum float64
	for i, p := range hints {
		stride := float64(p.ElemStride)
		if stride <= 0 {
			stride = 64
		}
		lineFrac := p.StreamFrac*minf(1, stride/64) + (1 - p.StreamFrac)
		weights[i] = p.MemFrac * (1 - p.HotFrac) * lineFrac
		if weights[i] <= 0 {
			weights[i] = 1e-6
		}
		wsum += weights[i]
	}
	return func(fill func(addr uint64, dirty bool)) {
		rng := seed*2654435761 + 0x9E3779B97F4A7C15
		next := func() uint64 {
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			return rng * 0x2545F4914F6CDD1D
		}
		for i, p := range hints {
			base := s.addrOffset + (uint64(i)+1)<<40
			wsLines := p.WSBytes / memreq.LineSize
			if wsLines == 0 {
				wsLines = 1
			}
			// Overfill by 30% so set-conflict duplicates still leave sets
			// full.
			n := int(float64(totalLines) * 1.3 * weights[i] / wsum)
			for k := 0; k < n; k++ {
				addr := base + (next()%wsLines)*memreq.LineSize
				dirty := float64(next()>>11)/(1<<53) < p.StoreFrac
				fill(addr, dirty)
			}
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// functionalWarmup streams instructions through the cache hierarchy with
// no timing, bringing cache contents (including dirty lines, hence
// write-back traffic) to steady state far faster than timed simulation.
// The paper's 50M-instruction warmup serves the same purpose.
func (s *System) functionalWarmup(perCore uint64) {
	s.muteWrites = true
	var ins trace.Instr
	for i, c := range s.cores {
		gen := c.Gen()
		for k := uint64(0); k < perCore; k++ {
			gen.Next(&ins)
			if !ins.IsMem {
				continue
			}
			line := memreq.LineAddr(ins.Addr)
			if s.l1[i].Lookup(line, ins.IsStore) {
				continue
			}
			if s.l2[i].Lookup(line, ins.IsStore) {
				s.installL1(i, line, ins.IsStore)
				continue
			}
			// Seed the LLC's dirty bits directly for store-fetched lines:
			// in steady state a written line's dirty bit reaches the LLC
			// through L2 eviction, a pipeline whose fill time would
			// otherwise dwarf the measured window (DESIGN.md §4).
			if !s.llc.Lookup(line, ins.IsStore) {
				s.llc.Fill(line, ins.IsStore)
			}
			s.installPrivate(i, line, ins.IsStore, 0)
		}
	}
	s.muteWrites = false
}

// fastForward advances each core's workload by perCore instructions
// without detailed timing, between sampled measurement windows. Three
// steps: (1) stream the instructions through the cache hierarchy
// functionally (cache and dirty-bit state advance; no requests, no clock) —
// the LLC statistics pollution is recorded for subtraction at collection;
// (2) freeze the cores and advance the clock by the gap's estimated
// detailed duration (perCore over each core's calibrated window IPC), so
// in-flight memory work drains at true latencies and periodic DRAM state —
// refresh schedules, idle precharge — stays realistic across the gap;
// (3) thaw the cores and wake them for the next detailed window.
// Measurement stays enabled throughout: completions landing during the
// drain belong to detailed-window requests and carry true latencies, and
// the functional stream adds none of its own.
func (s *System) fastForward(perCore uint64, ipc []float64) {
	st0 := s.llc.Stats()
	s.functionalWarmup(perCore)
	st1 := s.llc.Stats()
	s.ffAccesses += st1.Accesses - st0.Accesses
	s.ffMisses += st1.Misses - st0.Misses

	for _, c := range s.cores {
		c.SetFrozen(true)
	}
	var jump int64
	for _, v := range ipc {
		// Clamp the calibrated rate: a degenerate estimate must neither
		// stall the jump nor blow the cycle budget.
		if v < 0.02 {
			v = 0.02
		}
		if v > width {
			v = width
		}
		if j := int64(float64(perCore)/v) + 1; j > jump {
			jump = j
		}
	}
	target := s.now + jump
	for s.now < target {
		if s.clocking == CycleByCycle {
			s.step()
		} else {
			s.stepEvent(target)
		}
	}
	for i, c := range s.cores {
		c.SetFrozen(false)
		s.wakeCore(i, s.now+1)
	}
}

// width mirrors the core dispatch width for IPC clamping (cpu.Core's
// machine width is not exported; 4-wide throughout).
const width = 4

// runMeasureSampled runs the measure phase in sampled mode: detailed
// windows of `detail` per-core instructions alternate with functional
// fast-forward gaps of `ff`, until `total` per-core instructions
// (detailed + fast-forwarded) are accounted. Retirement targets are
// cumulative — cores only retire during detailed windows, and stats
// accumulate across them — so headline rates are computed over the union
// of the detailed windows (detailCycles) at collection.
func (s *System) runMeasureSampled(ctx context.Context, rc RunConfig) error {
	detail, ff, total := rc.SampleDetailInstr, rc.SampleFastFwdInstr, rc.MeasureInstr
	s.sampled = true
	ipc := make([]float64, len(s.cores))
	lastRetired := make([]uint64, len(s.cores))
	var done, cum uint64
	for done < total {
		d := detail
		if rem := total - done; rem < d {
			d = rem
		}
		cum += d
		budget := int64(d)*rc.MaxCyclesPerInstr + 1_000_000
		windowStart := s.now
		if err := s.runPhase(ctx, cum, budget); err != nil {
			return err
		}
		window := s.now - windowStart
		s.detailCycles += window
		// Calibrate per-core IPC from this window's deltas (retired since
		// the previous window over the window's cycles) for the next gap's
		// clock jump.
		for i, c := range s.cores {
			r := c.Stats().Retired
			if window > 0 {
				ipc[i] = float64(r-lastRetired[i]) / float64(window)
			}
			lastRetired[i] = r
		}
		done += d
		if done >= total {
			return nil
		}
		// Shorten the last gap so the run still ends with a detailed window:
		// collection anchors headline rates at the final window's finish
		// cycles, and a trailing gap would contribute nothing measured.
		f := ff
		if rem := total - done; f+detail > rem {
			if rem > detail {
				f = rem - detail
			} else {
				f = 0
			}
		}
		if f == 0 {
			continue
		}
		s.fastForward(f, ipc)
		done += f
	}
	return nil
}

// sampledIPC returns a core's measured IPC over the detailed windows only.
// The core retires instructions exclusively inside detailed windows (it is
// frozen across fast-forward gaps), and its final finish cycle lands inside
// the last detailed window, so its detailed span is the union of detailed
// windows minus the tail of the last one it did not need.
func (s *System) sampledIPC(c *cpu.Core) float64 {
	span := s.detailCycles
	if fc := c.FinishCycle; fc >= 0 {
		span -= s.now - fc
	}
	if span <= 0 {
		return 0
	}
	return float64(c.RetiredAtFinish()) / float64(span)
}

// BenchSteps advances the system n cycles (benchmark support), honoring
// the configured clocking mode.
func (s *System) BenchSteps(n int) {
	if s.clocking == CycleByCycle {
		for i := 0; i < n; i++ {
			s.step()
		}
		return
	}
	target := s.now + int64(n)
	for s.now < target {
		s.stepEvent(target)
	}
}

// resetStats zeroes all measurement state at the warmup boundary.
func (s *System) resetStats() {
	s.syncClock()
	for _, c := range s.cores {
		c.ResetStats(s.now)
	}
	for _, l := range s.l1 {
		l.ResetStats()
	}
	for _, l := range s.l2 {
		l.ResetStats()
	}
	s.llc.ResetStats()
	for _, b := range s.backends {
		b.ResetCounters()
	}
	s.policy.Reset()
	s.breakdown = stats.Breakdown{}
	s.hist.Reset()
	s.fpDiscarded = 0
	s.measuring = true
}

// ctxCheckCycles is the cancellation-poll granularity of runPhase: the
// context is consulted once per this many simulated cycles, so a canceled
// run stops at the next such window boundary with consistent state (every
// in-flight cycle fully drained) rather than mid-cycle.
const ctxCheckCycles = 4096

// runPhase executes until every core retires `target` instructions
// (counted from the last stats reset), bounded by maxCycles and by ctx
// cancellation (checked at ctxCheckCycles boundaries).
func (s *System) runPhase(ctx context.Context, target uint64, maxCycles int64) error {
	for _, c := range s.cores {
		c.SetTarget(target)
	}
	start := s.now
	limit := s.now + maxCycles
	nextCheck := s.now + ctxCheckCycles
	for {
		done := true
		for _, c := range s.cores {
			if !c.Done() {
				done = false
				break
			}
		}
		if done {
			if s.progressFn != nil {
				s.emitProgress(target, start)
			}
			return nil
		}
		if s.now >= limit {
			return fmt.Errorf("sim: %s: exceeded cycle budget (%d cycles for %d instructions)",
				s.cfg.Name, maxCycles, target)
		}
		if s.now >= nextCheck {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: %s: stopped at cycle %d: %w", s.cfg.Name, s.now, err)
			}
			if s.progressFn != nil {
				s.emitProgress(target, start)
			}
			nextCheck = s.now + ctxCheckCycles
		}
		if s.clocking == CycleByCycle {
			s.step()
		} else {
			s.stepEvent(limit)
		}
	}
}
