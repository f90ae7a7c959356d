package dram

import (
	"math"
	"math/bits"

	"coaxial/internal/memreq"
)

// entryKey is the decoded coordinate of one queued request: everything the
// FR-FCFS scans need, packed into 16 bytes. The queues are struct-of-arrays
// (keys, requests, and seen flags in parallel slices) so the per-cycle scans
// walk a dense key array instead of pointer-laden entries; the request
// pointer is only touched when a command actually issues.
type entryKey struct {
	row uint64
	bnk int32
	grp int32
}

// reqQueue is one scheduler queue in struct-of-arrays layout. Indices are
// shared across the three slices; push/remove keep them in lockstep.
type reqQueue struct {
	keys []entryKey
	//lint:owns popped on completion and released by the completer or the retired drain
	reqs []*memreq.Request
	seen []bool // first command issued (StartSvc recorded)
}

func newReqQueue(capacity int) reqQueue {
	return reqQueue{
		keys: make([]entryKey, 0, capacity),
		reqs: make([]*memreq.Request, 0, capacity),
		seen: make([]bool, 0, capacity),
	}
}

func (q *reqQueue) len() int { return len(q.keys) }

func (q *reqQueue) push(k entryKey, r *memreq.Request) {
	q.keys = append(q.keys, k)
	q.reqs = append(q.reqs, r)
	q.seen = append(q.seen, false)
}

// remove deletes index i preserving order (FR-FCFS ages by queue position).
func (q *reqQueue) remove(i int) {
	n := len(q.keys) - 1
	copy(q.keys[i:], q.keys[i+1:])
	copy(q.reqs[i:], q.reqs[i+1:])
	copy(q.seen[i:], q.seen[i+1:])
	q.reqs[n] = nil // drop the stale duplicate so the slot holds no reference
	q.keys = q.keys[:n]
	q.reqs = q.reqs[:n]
	q.seen = q.seen[:n]
}

// Counters accumulates DRAM activity for bandwidth and power accounting.
type Counters struct {
	ACT, PRE, RD, WR, REF uint64
	ReadBytes             uint64
	WriteBytes            uint64
	// ActiveBankCycles integrates (open banks x cycles) for background
	// power; PrechargeCycles is derived as banks*window - active.
	ActiveBankCycles uint64
	// RowHits / RowMisses classify column accesses for locality stats.
	RowHits, RowMisses uint64
}

// Accumulate adds ct's activity into c (summing counters across
// sub-channels, channels, or whole devices).
func (c *Counters) Accumulate(ct Counters) {
	c.ACT += ct.ACT
	c.PRE += ct.PRE
	c.RD += ct.RD
	c.WR += ct.WR
	c.REF += ct.REF
	c.ReadBytes += ct.ReadBytes
	c.WriteBytes += ct.WriteBytes
	c.ActiveBankCycles += ct.ActiveBankCycles
	c.RowHits += ct.RowHits
	c.RowMisses += ct.RowMisses
}

// SubChannel models one independent 32-bit DDR5 sub-channel: one rank of
// banks, its command/data buses, controller queues, and FR-FCFS scheduler.
//
// Per-bank state is struct-of-arrays: the readiness timestamps the
// scheduler scans every cycle live in dense int64 slices indexed by bank,
// and bank open/closed state is a single uint64 bitmask (like the row-hit
// mask, this caps the model at 64 banks per sub-channel — DDR5 has 32).
type SubChannel struct {
	cfg Config
	t   Timing

	// Per-bank timing state (SoA, indexed by bank).
	bankRow  []uint64
	casReady []int64 // next CAS (covers tRCD after ACT)
	actReady []int64 // next ACT (covers tRP after PRE, tRC after ACT, refresh)
	preReady []int64 // next PRE (covers tRAS, tRTP, write recovery)
	lastUse  []int64 // last ACT/CAS cycle, for idle precharge
	// openMask has bit b set while bank b holds an open row; popcount gives
	// the open-bank total for background-power integration.
	openMask uint64

	readQ  reqQueue
	writeQ reqQueue

	arrivals    memreq.TimedHeap
	completions memreq.TimedHeap

	// Rank-level constraints.
	actTimes     [4]int64 // FAW ring of the last four ACT issue cycles
	actIdx       int
	lastActTime  int64
	lastActGroup int32
	lastCASTime  int64
	lastCASGroup int32
	lastCASWrite bool
	busFree      int64 // data bus next-free cycle

	// Precomputed readiness gates, so the per-entry checks in the scheduler
	// scans are pure max-of-timestamps reductions with no timing-rule
	// branches. Each is a function of the rank-level state above and is
	// recomputed whenever that state changes (a CAS or ACT issue):
	//
	//   casTurn[w][g]  earliest next-CAS cycle imposed by the previous CAS,
	//                  for a next CAS of kind w (0 read, 1 write) in group
	//                  relation g (0 different bank group, 1 same group) —
	//                  the CCD / write-to-read / read-to-write turnaround
	//                  table evaluated once instead of per queue entry.
	//   busFloorR/W    earliest CAS cycle at which the data burst would find
	//                  the bus free (busFree - RL or WL).
	//   actTurn[g]     earliest next-ACT cycle imposed by tRRD (group
	//                  relation g) and the four-activate window, fused.
	casTurn              [2][2]int64
	busFloorR, busFloorW int64
	actTurn              [2]int64

	draining   bool
	refreshing bool
	refreshEnd int64
	refreshDue int64
	// Same-bank refresh state: next bank index and its due cycle.
	sbNext int32
	sbDue  int64

	// Decode parameters.
	divisor     uint64 // total sub-channels in the system (strided out)
	linesPerRow uint64
	nBanks      uint64
	banksPerGrp int32
	noPermute   bool

	// Starvation guard: when the oldest request has waited longer than
	// this, row-hit-first bypassing is suspended.
	starvationLimit int64

	lastInteg int64
	idleScan  int // round-robin cursor for idle precharge
	// idlePreAt caches the earliest cycle an idle-precharge scan could
	// succeed, set by a fruitless scan (see tryIdlePrecharge).
	idlePreAt int64
	// targetCnt counts queued requests (both queues) per bank, maintained
	// incrementally at arrival pop and CAS retirement so the idle-precharge
	// paths need no per-scan queue walks to build the protected-bank set.
	// targetMask mirrors it as a bank bitmask (bit set iff count nonzero)
	// so those scans iterate only open, untargeted banks.
	targetCnt  []int32
	targetMask uint64
	// issueBound caches tryIssue's return — the earliest cycle the command
	// slot could next be usable over the frozen scheduler state. It stays
	// exact until that state changes (an arrival pop, an issue, a refresh
	// step — the latter two force a rescan by setting it to now+1 or
	// invalidBound), so Tick skips the scan entirely before it. boundAt
	// records the cycle the bound was last endorsed; NextEvent reuses the
	// bound only when queried that same cycle (Tick and NextEvent run back
	// to back) and rescans otherwise.
	issueBound int64
	boundAt    int64

	// pendingR/pendingW count requests pushed but not yet arrived, so
	// queue-depth admission covers in-flight arrivals too.
	pendingR, pendingW int

	// retired buffers requests that died inside the sub-channel during this
	// backend phase: write CAS retirements with no completion callback.
	// Collected only when collectRetired is set (the simulator drains the
	// buffer at the cycle barrier to recycle arena requests); raw
	// sub-channel users leave it off and such requests simply become
	// unreferenced, as before.
	collectRetired bool
	//lint:owns handed to the owning System's retired drain by DrainRetired, which releases them
	retired []*memreq.Request

	ctr Counters

	// cmdTrace, when non-nil, receives every issued command (testing and
	// analysis hook; nil in normal operation).
	cmdTrace func(Command)

	// observers receive every issued command after cmdTrace (validation
	// taps; empty in normal operation).
	observers []CommandObserver

	// now tracks the last ticked cycle for monotonicity.
	now int64
}

// CommandKind enumerates DRAM bus commands for tracing.
type CommandKind uint8

// Command kinds observed on the command bus.
const (
	CmdACT CommandKind = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
)

// String implements fmt.Stringer.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	default:
		return "?"
	}
}

// Command is one traced command-bus event.
type Command struct {
	Cycle int64
	Kind  CommandKind
	Bank  int32
	Group int32
	Row   uint64
}

// SetCommandTrace installs a per-command observer (nil to disable). For
// verification: the observer must not mutate the sub-channel.
func (s *SubChannel) SetCommandTrace(fn func(Command)) { s.cmdTrace = fn }

// CommandObserver receives every command the scheduler puts on the command
// bus, in issue order. Implementations must not mutate the sub-channel;
// they are invoked synchronously from Tick.
type CommandObserver interface {
	OnCommand(Command)
}

// AttachObserver registers an additional command observer alongside any
// SetCommandTrace hook. Observers cannot be detached; attach them before
// the first tick.
func (s *SubChannel) AttachObserver(o CommandObserver) {
	s.observers = append(s.observers, o)
}

func (s *SubChannel) trace(kind CommandKind, bnk, grp int32, row uint64, now int64) {
	if s.cmdTrace == nil && len(s.observers) == 0 {
		return
	}
	c := Command{Cycle: now, Kind: kind, Bank: bnk, Group: grp, Row: row}
	if s.cmdTrace != nil {
		s.cmdTrace(c)
	}
	for _, o := range s.observers {
		o.OnCommand(c)
	}
}

// Config returns the sub-channel's configuration (validation oracles build
// their independent timing model from it).
func (s *SubChannel) Config() Config { return s.cfg }

// ForEachPending visits every request the sub-channel currently owns:
// queued in the scheduler, awaiting arrival, or awaiting completion
// delivery. For validation walks; fn must not mutate the sub-channel.
func (s *SubChannel) ForEachPending(fn func(*memreq.Request)) {
	for _, r := range s.readQ.reqs {
		fn(r)
	}
	for _, r := range s.writeQ.reqs {
		fn(r)
	}
	s.arrivals.ForEach(fn)
	s.completions.ForEach(fn)
}

// SetCollectRetired enables buffering of requests that retire inside the
// sub-channel without a completion callback (write CAS retirements with a
// nil Ret). The simulator drains the buffer with DrainRetired at the cycle
// barrier to recycle arena-allocated requests. Off by default.
func (s *SubChannel) SetCollectRetired(on bool) { s.collectRetired = on }

// DrainRetired hands every buffered retired request to fn and clears the
// buffer. Call only from the sequential phases of the tick loop.
func (s *SubChannel) DrainRetired(fn func(*memreq.Request)) {
	if len(s.retired) == 0 {
		return
	}
	for i, r := range s.retired {
		s.retired[i] = nil
		fn(r)
	}
	s.retired = s.retired[:0]
}

// NewSubChannel constructs a sub-channel. divisor is the total number of
// sub-channels across the whole memory system; line addresses are divided
// by it before bank/row decoding so each sub-channel sees a dense space.
func NewSubChannel(cfg Config, divisor int) *SubChannel {
	if divisor < 1 {
		divisor = 1
	}
	nb := cfg.Banks()
	s := &SubChannel{
		cfg:      cfg,
		t:        cfg.Timing,
		bankRow:  make([]uint64, nb),
		casReady: make([]int64, nb),
		actReady: make([]int64, nb),
		preReady: make([]int64, nb),
		lastUse:  make([]int64, nb),
		// Queue occupancy is bounded by the admission check in Enqueue
		// (len+pending never exceeds the configured depth), so sizing the
		// backing arrays to capacity up front means the hot scheduler path
		// never reallocates: arrivals append within capacity and issueCAS's
		// in-place delete reuses the same arrays.
		readQ:           newReqQueue(cfg.ReadQueueDepth),
		writeQ:          newReqQueue(cfg.WriteQueueDepth),
		targetCnt:       make([]int32, nb),
		divisor:         uint64(divisor),
		linesPerRow:     uint64(cfg.RowBytes / memreq.LineSize),
		nBanks:          uint64(nb),
		banksPerGrp:     int32(cfg.BanksPerGroup),
		noPermute:       cfg.DisableBankPermutation,
		starvationLimit: 8000,
		refreshDue:      cfg.Timing.REFI,
		lastCASTime:     -1 << 40,
		lastActTime:     -1 << 40,
	}
	for i := range s.actTimes {
		s.actTimes[i] = -1 << 40
	}
	s.recomputeCASGates()
	s.recomputeACTGates()
	return s
}

// recomputeCASGates refreshes the precomputed CAS readiness vectors from
// the rank CAS state (lastCASTime/lastCASWrite/busFree). Called whenever a
// CAS issues; the table is exactly the turnaround case analysis the old
// per-entry check performed (read-after-write pays tWTR behind the write
// burst, write-after-read pays tCCD plus the bus-turnaround bubble,
// same-kind CAS pairs pay tCCD), evaluated once per issue instead of once
// per scanned queue entry.
func (s *SubChannel) recomputeCASGates() {
	t := s.lastCASTime
	if s.lastCASWrite {
		s.casTurn[0][0] = t + s.t.WL + s.t.BURST + s.t.WTRS
		s.casTurn[0][1] = t + s.t.WL + s.t.BURST + s.t.WTRL
		s.casTurn[1][0] = t + s.t.CCDS
		s.casTurn[1][1] = t + s.t.CCDL
	} else {
		s.casTurn[0][0] = t + s.t.CCDS
		s.casTurn[0][1] = t + s.t.CCDL
		s.casTurn[1][0] = t + s.t.CCDS + s.t.RTW
		s.casTurn[1][1] = t + s.t.CCDL + s.t.RTW
	}
	s.busFloorR = s.busFree - s.t.RL
	s.busFloorW = s.busFree - s.t.WL
}

// recomputeACTGates refreshes the precomputed ACT readiness vector from the
// rank ACT state (lastActTime and the FAW ring). Called whenever an ACT
// issues.
func (s *SubChannel) recomputeACTGates() {
	faw := s.actTimes[s.actIdx] + s.t.FAW
	a := s.lastActTime + s.t.RRDS
	if faw > a {
		a = faw
	}
	s.actTurn[0] = a
	b := s.lastActTime + s.t.RRDL
	if faw > b {
		b = faw
	}
	s.actTurn[1] = b
}

// b2i converts a gate-selection predicate to a table index (compiles to a
// conditional set, keeping the readiness reductions branch-free).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// decode maps a line-aligned address to (row, bank, bankGroup) using an
// open-page-friendly layout (column bits low) with permutation-based bank
// interleaving: the bank index is XOR-permuted by a fold of the row bits
// (including high bits, so distinct per-core address-space bases land on
// different banks) while staying a within-row permutation, so distinct
// lines never alias to the same (bank, row, column).
func (s *SubChannel) decode(addr uint64) (row uint64, bnk, grp int32) {
	line := (addr >> memreq.LineShift) / s.divisor
	rest := line / s.linesPerRow
	bankRaw := rest % s.nBanks
	row = rest / s.nBanks
	if s.noPermute {
		return row, int32(bankRaw), int32(bankRaw) / s.banksPerGrp
	}
	fold := row ^ (row >> 7) ^ (row >> 13) ^ (row >> 19) ^ (row >> 25)
	b := bankRaw ^ (fold % s.nBanks)
	return row, int32(b), int32(b) / s.banksPerGrp
}

// Enqueue accepts a request that becomes visible to the scheduler at cycle
// `at`. It returns false when the corresponding queue (plus not-yet-arrived
// requests) is at capacity.
func (s *SubChannel) Enqueue(r *memreq.Request, at int64) bool {
	if r.Kind == memreq.Write {
		if s.writeQ.len()+s.pendingW >= s.cfg.WriteQueueDepth {
			return false
		}
	} else {
		if s.readQ.len()+s.pendingR >= s.cfg.ReadQueueDepth {
			return false
		}
	}
	if at < s.now {
		at = s.now
	}
	s.arrivals.Push(at, r)
	if r.Kind == memreq.Write {
		s.pendingW++
	} else {
		s.pendingR++
	}
	return true
}

// QueueOccupancy reports current read/write queue depths including
// in-flight arrivals (for backpressure decisions by the CXL layer).
func (s *SubChannel) QueueOccupancy() (reads, writes int) {
	return s.readQ.len() + s.pendingR, s.writeQ.len() + s.pendingW
}

// Counters returns a copy of the activity counters (after integrating
// background state up to the last ticked cycle).
func (s *SubChannel) Counters() Counters {
	s.integrate(s.now)
	return s.ctr
}

// ResetCounters zeroes activity counters (used at the warmup/measure
// boundary). lastInteg is deliberately left alone: Sync may already have
// integrated past the sub-channel's own clock, and winding it back would
// double-count those cycles on the next state change.
func (s *SubChannel) ResetCounters() {
	s.integrate(s.now)
	s.ctr = Counters{}
}

// Sync integrates background bank-state accounting up to `now` without
// simulating any events. A sub-channel the event loop has skipped is
// provably inert over the gap — no commands, arrivals, or completions —
// but its open banks still accrue ActiveBankCycles each cycle; Sync
// realizes exactly that. The sub-channel's own clock is not advanced, so
// freshly enqueued work is still processed by the next Tick at the cycle
// the cycle-by-cycle loop would have processed it.
func (s *SubChannel) Sync(now int64) {
	s.integrate(now)
}

func (s *SubChannel) integrate(now int64) {
	if now > s.lastInteg {
		s.ctr.ActiveBankCycles += uint64(bits.OnesCount64(s.openMask)) * uint64(now-s.lastInteg)
		s.lastInteg = now
	}
}

// Tick advances the sub-channel one cycle. At most one command issues per
// tick, mirroring a single command bus. Re-ticking an already-simulated
// cycle is a no-op so that the event-driven loop may sync a lazily-skipped
// sub-channel to the global clock before reading counters.
func (s *SubChannel) Tick(now int64) {
	if now <= s.now {
		return
	}
	s.now = now

	// Deliver completions due this cycle.
	for {
		r, ok := s.completions.PopDue(now)
		if !ok {
			break
		}
		if r.Ret != nil {
			r.Ret.Complete(r, r.DataDone)
		}
	}

	// Move due arrivals into the scheduler queues.
	arrived := false
	for {
		r, ok := s.arrivals.PopDue(now)
		if !ok {
			break
		}
		arrived = true
		row, bnk, grp := s.decode(r.Addr)
		r.ArriveMC = now
		s.targetCnt[bnk]++
		s.targetMask |= 1 << uint(bnk)
		k := entryKey{row: row, bnk: bnk, grp: grp}
		if r.Kind == memreq.Write {
			s.writeQ.push(k, r)
			s.pendingW--
		} else {
			s.readQ.push(k, r)
			s.pendingR--
		}
	}

	if s.cfg.SameBankRefresh {
		// Fine-granularity refresh: each due REFsb blocks only its bank.
		if now >= s.sbDue {
			s.issueBound = invalidBound // REFsb path mutates bank state
			if s.stepRefreshSameBank(now) {
				return // command slot consumed this cycle
			}
		}
		if !arrived && now < s.issueBound {
			s.boundAt = now
			return
		}
		s.issueBound = s.tryIssue(now)
		s.boundAt = now
		return
	}

	if s.refreshing {
		if now < s.refreshEnd {
			return
		}
		s.refreshing = false
	}

	// Refresh has priority once due: quiesce (precharge all banks), then
	// hold the rank for tRFC.
	if now >= s.refreshDue {
		// Quiesce PREs and the REF itself mutate bank state without going
		// through tryIssue; force a rescan on the next normal tick.
		s.issueBound = invalidBound
		if s.stepRefresh(now) {
			return
		}
		// Refresh issued or a PRE consumed the command slot.
		return
	}

	// The last scan's bound is still exact when the frozen scheduler state
	// is unchanged since it was computed: no arrival joined a queue this
	// tick, no command issued (an issue returns a bound of now+1, forcing
	// the next tick to rescan), and no refresh sequence ran (invalidated
	// above). Every per-entry gate in tryIssue is a constant of that state
	// — including the starvation guard's activation cycle, which the scan
	// folds into the bound — so before the bound the slot is provably
	// unusable and the scan would issue nothing and change nothing.
	if !arrived && now < s.issueBound {
		s.boundAt = now
		return
	}
	s.issueBound = s.tryIssue(now)
	s.boundAt = now
}

// NextEvent returns the earliest cycle after now at which Tick could make
// progress. Between ticks the scheduler state is frozen — queue contents
// change only when Tick pops an arrival or issues a CAS, and every timing
// gate (casReady, bus turnaround, actReady, tRRD, tFAW, preReady,
// starvation age) is a monotone threshold on now over that frozen state —
// so the first cycle any command could issue is exactly computable
// (nextIssueAt). The candidates are: that bound, the next arrival, the
// next completion delivery, and refresh becoming due. Any of those events
// triggers a tick, after which the caller re-queries NextEvent against the
// new state; cycles skipped between them are provable no-ops (Tick would
// pop nothing and fall through tryIssue without effect). During quiesce
// or REFsb windows (refreshDue/sbDue already past) the sub-channel claims
// now+1 and steps cycle by cycle, as those paths consume command slots on
// timing-dependent cycles of their own.
func (s *SubChannel) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	if t, ok := s.arrivals.PeekAt(); ok && t < next {
		next = t
	}
	if t, ok := s.completions.PeekAt(); ok && t < next {
		next = t
	}
	blocked := false // command slot unusable until an already-counted candidate
	if s.cfg.SameBankRefresh {
		// The next REFsb (or its quiescing PRE, when the victim bank sits
		// open) issues at sbDue; if that is already past — the PRE window
		// hasn't opened yet — re-examine every cycle.
		if s.sbDue < next {
			next = s.sbDue
		}
	} else {
		if s.refreshing && now < s.refreshEnd {
			// tRFC window: no command can issue before refreshEnd. With
			// empty queues clearing the flag is unobservable before the
			// next arrival; with queued work the first possible command
			// cycle is refreshEnd itself.
			blocked = true
			if (s.readQ.len() > 0 || s.writeQ.len() > 0) && s.refreshEnd < next {
				next = s.refreshEnd
			}
		}
		// refreshDue is the next all-bank REF sequence (quiesce begins).
		if s.refreshDue < next {
			next = s.refreshDue
		}
	}
	if next <= now {
		// An already-counted candidate forces the next cycle (quiesce or
		// REFsb PRE windows); the scheduler bound cannot be earlier.
		return now + 1
	}
	if !blocked && (s.readQ.len() > 0 || s.writeQ.len() > 0) {
		// Tick's scheduling decision already computed the bound over
		// exactly this frozen state; reuse it when NextEvent is queried
		// the same cycle (the normal Tick/NextEvent pairing) and fall
		// back to a fresh scan otherwise (e.g. after a refresh step
		// consumed the command slot before tryIssue ran).
		t := s.issueBound
		if s.boundAt != now {
			t = s.nextIssueAt()
		}
		if t < next {
			next = t
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// nextIssueAt computes the first cycle at which tryIssue, evaluated
// against the current (frozen) scheduler state, could issue any command.
// It mirrors tryIssue's candidate set — starvation guard, row-hit CAS,
// closed-bank ACT, conflict PRE, idle PRE — replacing each "may it issue
// now?" check with the exact cycle its timing gates open. Priority among
// candidates affects which command issues, not whether one can, so the
// minimum over all candidates is the first cycle the command slot is
// usable. The bound is invalidated by any state change (arrival pop, CAS
// retiring a queue entry, refresh), but each of those coincides with a
// tick, after which NextEvent recomputes.
func (s *SubChannel) nextIssueAt() int64 {
	// Mirror the write-drain hysteresis update tryIssue will apply to the
	// frozen queue lengths: it is idempotent until the lengths change.
	draining := s.draining
	if draining {
		if s.writeQ.len() <= s.cfg.WriteLow {
			draining = false
		}
	} else if s.writeQ.len() >= s.cfg.WriteHigh {
		draining = true
	}
	useWrites := draining
	if !useWrites && s.readQ.len() == 0 && s.writeQ.len() > 0 {
		useWrites = true
	}
	q := &s.readQ
	isWrite := false
	if useWrites {
		q = &s.writeQ
		isWrite = true
	}
	keys := q.keys
	if len(keys) == 0 {
		return math.MaxInt64
	}

	turn := &s.casTurn[b2i(isWrite)]
	busFloor := s.busFloorR
	if isWrite {
		busFloor = s.busFloorW
	}

	hitMask := s.hitMask(keys)

	earliest := int64(math.MaxInt64)

	// Starvation guard: once the oldest request's age crosses the limit it
	// is served exclusively, through whichever command its bank state
	// needs — including a PRE that row-hit protection would veto below.
	k0 := &keys[0]
	var g int64
	open0 := s.openMask&(1<<uint(k0.bnk)) != 0
	switch {
	case open0 && s.bankRow[k0.bnk] == k0.row:
		g = s.casReady[k0.bnk]
		if v := turn[b2i(k0.grp == s.lastCASGroup)]; v > g {
			g = v
		}
		if busFloor > g {
			g = busFloor
		}
	case !open0:
		g = s.earliestACT(k0.bnk, k0.grp)
	default:
		g = s.preReady[k0.bnk]
	}
	if t0 := q.reqs[0].ArriveMC + s.starvationLimit + 1; g < t0 {
		g = t0
	}
	if g < earliest {
		earliest = g
	}

	// Passes 1–3: row-hit CAS, closed-bank ACT, unprotected-conflict PRE.
	for i := range keys {
		k := &keys[i]
		bit := uint64(1) << uint(k.bnk)
		open := s.openMask&bit != 0
		var t int64
		switch {
		case open && s.bankRow[k.bnk] == k.row:
			t = s.casReady[k.bnk]
			if v := turn[b2i(k.grp == s.lastCASGroup)]; v > t {
				t = v
			}
			if busFloor > t {
				t = busFloor
			}
		case !open:
			t = s.earliestACT(k.bnk, k.grp)
		case hitMask&bit == 0:
			t = s.preReady[k.bnk]
		default:
			continue // conflict on a bank with protected row hits
		}
		if t < earliest {
			earliest = t
		}
	}

	// Pass 4: idle precharge of a stale open bank no queued request
	// targets (targetMask spans both queues). Untargeting a bank requires
	// a queue entry to leave (a CAS — a tick), so excluding targeted banks
	// here is sound.
	for m := s.openMask &^ s.targetMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		t := s.lastUse[i] + idlePreTimeout + 1
		if s.preReady[i] > t {
			t = s.preReady[i]
		}
		if t < earliest {
			earliest = t
		}
	}
	return earliest
}

// hitMask builds the per-bank mask of banks whose open row has queued hits;
// precharging such a bank would throw away guaranteed row hits.
func (s *SubChannel) hitMask(keys []entryKey) uint64 {
	var mask uint64
	for i := range keys {
		k := &keys[i]
		bit := uint64(1) << uint(k.bnk)
		if s.openMask&bit != 0 && s.bankRow[k.bnk] == k.row {
			mask |= bit
		}
	}
	return mask
}

// earliestACT returns the exact first cycle an ACT for (bnk, grp) could
// issue over the frozen state: the max of the bank tRP/tRC window and the
// precomputed rank gate (tRRD and the four-activate window, fused).
func (s *SubChannel) earliestACT(bnk, grp int32) int64 {
	t := s.actReady[bnk]
	if v := s.actTurn[b2i(grp == s.lastActGroup)]; v > t {
		t = v
	}
	return t
}

// stepRefresh drives the quiesce-then-REF sequence. It returns true if the
// command slot was consumed (or the rank is still waiting on timing).
func (s *SubChannel) stepRefresh(now int64) bool {
	if s.openMask != 0 {
		for m := s.openMask; m != 0; m &= m - 1 {
			i := int32(bits.TrailingZeros64(m))
			if now >= s.preReady[i] {
				s.issuePRE(i, now)
				return true
			}
		}
		return true // waiting for a PRE window
	}
	// All banks precharged: issue REF.
	s.refreshing = true
	s.refreshEnd = now + s.t.RFC
	s.refreshDue += s.t.REFI
	for i := range s.actReady {
		if s.refreshEnd > s.actReady[i] {
			s.actReady[i] = s.refreshEnd
		}
	}
	s.ctr.REF++
	s.trace(CmdREF, -1, -1, 0, now)
	return true
}

// stepRefreshSameBank advances the round-robin REFsb schedule. Each bank
// must refresh once per tREFI; banks take turns every tREFI/nBanks cycles,
// blocked individually for tRFCsb. Returns true if the command slot was
// consumed.
//
// Slot semantics: a pending REFsb consumes the cycle's single command slot
// only when it actually issues a command — the quiescing PRE for an open
// victim bank, or the REFsb itself once the bank is closed. While the
// victim bank sits open inside its tRAS/tRTP/tWR window (now < preReady),
// no command can issue for the refresh, so the slot is NOT consumed and
// ordinary FR-FCFS scheduling proceeds: other banks keep serving row hits
// and activates. Only the victim bank stalls. This is the point of
// same-bank refresh (DDR5 REFsb) versus all-bank refresh, which quiesces
// and blocks the entire rank for tRFC; TestSameBankRefreshSlotSemantics
// pins this behaviour.
func (s *SubChannel) stepRefreshSameBank(now int64) bool {
	b := s.sbNext
	if s.openMask&(1<<uint(b)) != 0 {
		if now >= s.preReady[b] {
			s.issuePRE(b, now)
			return true
		}
		return false // PRE window closed: slot unused, other banks proceed
	}
	// Bank closed: issue REFsb, blocking only this bank.
	blockUntil := now + s.t.RFCsb
	if blockUntil > s.actReady[b] {
		s.actReady[b] = blockUntil
	}
	s.ctr.REF++
	s.trace(CmdREF, b, b/s.banksPerGrp, 0, now)
	s.sbNext = (s.sbNext + 1) % int32(len(s.bankRow))
	s.sbDue += s.t.REFI / int64(len(s.bankRow))
	return true
}

// tryIssue performs one FR-FCFS scheduling decision and returns the
// earliest cycle the command slot could next be usable, fusing the
// scheduling scan with the bound computation NextEvent needs (the two
// previously walked the queue separately every tick). When a command
// issues, the returned bound is now+1: the issue changed rank state
// mid-scan, and an extra tick is always harmless (NextEvent's contract),
// while in the loaded regime the following cycle usually issues anyway.
// When nothing issues, the bound is exact over the frozen state: the
// minimum over every candidate's gate-opening cycle, matching what
// nextIssueAt would compute.
//
// Every readiness check is a max-of-timestamps reduction over the
// precomputed gate vectors (casTurn/busFloor/actTurn) — the timing-rule
// case analysis runs once per issue (recompute*Gates), not once per
// scanned entry, so the inner loop is a predictable min/max reduction.
func (s *SubChannel) tryIssue(now int64) int64 {
	// Write-drain hysteresis.
	if s.draining {
		if s.writeQ.len() <= s.cfg.WriteLow {
			s.draining = false
		}
	} else if s.writeQ.len() >= s.cfg.WriteHigh {
		s.draining = true
	}

	useWrites := s.draining
	if !useWrites && s.readQ.len() == 0 && s.writeQ.len() > 0 {
		useWrites = true // opportunistic write issue on an idle read queue
	}

	q := &s.readQ
	isWrite := false
	if useWrites {
		q = &s.writeQ
		isWrite = true
	}
	keys := q.keys
	if len(keys) == 0 {
		return math.MaxInt64 // both queues empty: only arrivals create work
	}

	turn := &s.casTurn[b2i(isWrite)]
	busFloor := s.busFloorR
	if isWrite {
		busFloor = s.busFloorW
	}

	hitMask := s.hitMask(keys)

	earliest := int64(math.MaxInt64)

	// Starvation guard: when the oldest request has waited pathologically
	// long, serve it exclusively this slot (ignoring row-hit protection).
	if now-q.reqs[0].ArriveMC > s.starvationLimit {
		k0 := &keys[0]
		open0 := s.openMask&(1<<uint(k0.bnk)) != 0
		switch {
		case open0 && s.bankRow[k0.bnk] == k0.row:
			t := s.casReady[k0.bnk]
			if v := turn[b2i(k0.grp == s.lastCASGroup)]; v > t {
				t = v
			}
			if busFloor > t {
				t = busFloor
			}
			if t <= now {
				s.issueCAS(q, 0, isWrite, now)
				return now + 1
			}
		case !open0:
			if s.earliestACT(k0.bnk, k0.grp) <= now {
				s.issueACT(q, 0, now)
				return now + 1
			}
		default:
			if now >= s.preReady[k0.bnk] {
				if !q.seen[0] {
					q.seen[0] = true
					q.reqs[0].StartSvc = now
				}
				s.issuePRE(k0.bnk, now)
				return now + 1
			}
			// Protected-conflict oldest: the guard is the only path that
			// may precharge it, so its PRE window bounds the slot.
			if s.preReady[k0.bnk] < earliest {
				earliest = s.preReady[k0.bnk]
			}
		}
		// The oldest request's own timing blocks it; let others proceed.
	} else {
		// Guard not yet active: a protected-conflict oldest becomes
		// servable (via the guard's PRE) once its age crosses the limit.
		// Other classes are covered by the fused pass below, whose
		// candidates can only be earlier than the guard's.
		k0 := &keys[0]
		bit0 := uint64(1) << uint(k0.bnk)
		if s.openMask&bit0 != 0 && s.bankRow[k0.bnk] != k0.row && hitMask&bit0 != 0 {
			g := s.preReady[k0.bnk]
			if t0 := q.reqs[0].ArriveMC + s.starvationLimit + 1; g < t0 {
				g = t0
			}
			if g < earliest {
				earliest = g
			}
		}
	}

	// Single fused pass over the queue, preserving the priority order of
	// the former passes 1–3: the first issuable row-hit CAS wins outright
	// (scanning stops — nothing later can preempt it); otherwise the first
	// issuable closed-bank ACT, then the first issuable unprotected-
	// conflict PRE, are remembered while the scan completes (a later
	// issuable CAS still has priority over either).
	actIdx, preIdx := -1, -1
	for i := range keys {
		k := &keys[i]
		bit := uint64(1) << uint(k.bnk)
		open := s.openMask&bit != 0
		switch {
		case open && s.bankRow[k.bnk] == k.row:
			t := s.casReady[k.bnk]
			if v := turn[b2i(k.grp == s.lastCASGroup)]; v > t {
				t = v
			}
			if busFloor > t {
				t = busFloor
			}
			if t <= now {
				s.issueCAS(q, i, isWrite, now)
				return now + 1
			} else if t < earliest {
				earliest = t
			}
		case !open:
			if actIdx >= 0 {
				continue
			}
			if t := s.earliestACT(k.bnk, k.grp); t <= now {
				actIdx = i
			} else if t < earliest {
				earliest = t
			}
		case hitMask&bit == 0:
			if preIdx >= 0 {
				continue
			}
			if t := s.preReady[k.bnk]; t <= now {
				preIdx = i
			} else if t < earliest {
				earliest = t
			}
		default:
			// Conflict on a bank with protected row hits: unservable
			// until a CAS retires a queue entry (a tick of its own).
		}
	}

	if actIdx >= 0 {
		s.issueACT(q, actIdx, now)
		return now + 1
	}
	if preIdx >= 0 {
		if !q.seen[preIdx] {
			q.seen[preIdx] = true
			q.reqs[preIdx].StartSvc = now
		}
		s.issuePRE(keys[preIdx].bnk, now)
		return now + 1
	}

	// Pass 4 (idle precharge): spend an otherwise-wasted command slot
	// closing a bank that has been idle past the timeout and has no queued
	// row hits, so future random accesses skip the conflict precharge.
	if t := s.tryIdlePrecharge(now); t < earliest {
		earliest = t
	}
	return earliest
}

// idlePreTimeout is the open-row idle window before speculative precharge.
const idlePreTimeout = 120

// invalidBound marks issueBound as stale (any past cycle would do): the
// next normal tick rescans instead of trusting the cached bound. Set by
// the refresh paths, which mutate bank state without going through
// tryIssue.
const invalidBound = math.MinInt64

// tryIdlePrecharge closes one stale open bank, if any, and returns the
// earliest cycle a currently open, untargeted bank could become eligible
// (now+1 when a PRE issued). Banks targeted by any queued request — in
// either queue, tracked incrementally in targetCnt — are protected: a
// pending ACT would only be delayed by tRP anyway, and row hits would be
// thrown away. A fruitless scan caches the bound in idlePreAt so the
// per-cycle fast path is a single compare: re-scanning before it is
// provably fruitless because an untargeted bank's lastUse and preReady
// only ever move its eligibility later, banks opened after the scan are
// both targeted (their ACT served a queued entry) and fresh, closed banks
// drop out, and the one transition that could make a bank eligible
// *earlier* — losing its last targeting entry, which happens only when a
// CAS retires it — invalidates the cache at the issueCAS site.
func (s *SubChannel) tryIdlePrecharge(now int64) int64 {
	if s.openMask == 0 {
		return math.MaxInt64
	}
	if now < s.idlePreAt {
		return s.idlePreAt
	}
	start := s.idleScan
	earliest := int64(math.MaxInt64)
	// Candidates are exactly the open, untargeted banks; walk their mask
	// in the historical round-robin order (banks >= start ascending, then
	// the wrap-around below start) instead of probing every bank index.
	elig := s.openMask &^ s.targetMask
	hi := elig & (^uint64(0) << uint(start))
	for _, m := range [2]uint64{hi, elig &^ hi} {
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if now >= s.preReady[i] && now-s.lastUse[i] > idlePreTimeout {
				s.issuePRE(int32(i), now)
				s.idleScan = i + 1
				return now + 1
			}
			e := s.lastUse[i] + idlePreTimeout + 1
			if s.preReady[i] > e {
				e = s.preReady[i]
			}
			if e < earliest {
				earliest = e
			}
		}
	}
	s.idleScan = start
	s.idlePreAt = earliest
	return earliest
}

func (s *SubChannel) issueACT(q *reqQueue, i int, now int64) {
	k := &q.keys[i]
	bnk := k.bnk
	s.integrate(now)
	s.openMask |= 1 << uint(bnk)
	s.bankRow[bnk] = k.row
	s.lastUse[bnk] = now
	s.casReady[bnk] = now + s.t.RCD
	s.preReady[bnk] = now + s.t.RAS
	s.actReady[bnk] = now + s.t.RC
	s.actTimes[s.actIdx] = now
	s.actIdx = (s.actIdx + 1) % len(s.actTimes)
	s.lastActTime = now
	s.lastActGroup = k.grp
	s.recomputeACTGates()
	s.ctr.ACT++
	s.trace(CmdACT, bnk, k.grp, k.row, now)
	if !q.seen[i] {
		q.seen[i] = true
		q.reqs[i].StartSvc = now
	}
}

func (s *SubChannel) issuePRE(bnk int32, now int64) {
	s.integrate(now)
	s.openMask &^= 1 << uint(bnk)
	if a := now + s.t.RP; a > s.actReady[bnk] {
		s.actReady[bnk] = a
	}
	s.ctr.PRE++
	s.trace(CmdPRE, bnk, bnk/s.banksPerGrp, s.bankRow[bnk], now)
}

func (s *SubChannel) issueCAS(q *reqQueue, i int, isWrite bool, now int64) {
	k := q.keys[i]
	r := q.reqs[i]
	seen := q.seen[i]
	bnk := k.bnk
	lat := s.t.RL
	if isWrite {
		lat = s.t.WL
	}
	dataStart := now + lat
	dataEnd := dataStart + s.t.BURST
	s.lastUse[bnk] = now
	s.busFree = dataEnd
	s.lastCASTime = now
	s.lastCASGroup = k.grp
	s.lastCASWrite = isWrite
	s.recomputeCASGates()

	if !seen {
		r.StartSvc = now
		s.ctr.RowHits++
	} else {
		s.ctr.RowMisses++
	}
	r.DataDone = dataEnd

	if isWrite {
		// Write recovery gates the next PRE.
		if a := dataEnd + s.t.WR; a > s.preReady[bnk] {
			s.preReady[bnk] = a
		}
		s.ctr.WR++
		s.ctr.WriteBytes += memreq.LineSize
		s.trace(CmdWR, bnk, k.grp, k.row, now)
	} else {
		if a := now + s.t.RTP; a > s.preReady[bnk] {
			s.preReady[bnk] = a
		}
		s.ctr.RD++
		s.ctr.ReadBytes += memreq.LineSize
		s.trace(CmdRD, bnk, k.grp, k.row, now)
	}

	// Remove from queue preserving order.
	q.remove(i)
	if s.targetCnt[bnk]--; s.targetCnt[bnk] == 0 {
		s.targetMask &^= 1 << uint(bnk)
		// The bank lost its last targeting entry: it joins the
		// idle-precharge candidate set, so fold its eligibility — exactly
		// computable here, since this CAS just set lastUse=now and any
		// recovery-window push to preReady happened above — into the
		// cached bound rather than forcing a rescan.
		t := now + idlePreTimeout + 1
		if s.preReady[bnk] > t {
			t = s.preReady[bnk]
		}
		if t < s.idlePreAt {
			s.idlePreAt = t
		}
	}

	if r.Ret != nil {
		s.completions.Push(dataEnd, r)
	} else if s.collectRetired {
		s.retired = append(s.retired, r)
	}
}

// Idle reports whether the sub-channel has no queued work, arrivals, or
// completions outstanding (used by drain loops).
func (s *SubChannel) Idle() bool {
	return s.readQ.len() == 0 && s.writeQ.len() == 0 &&
		s.arrivals.Len() == 0 && s.completions.Len() == 0 &&
		s.pendingR == 0 && s.pendingW == 0
}
