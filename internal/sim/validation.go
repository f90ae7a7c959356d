package sim

import (
	"fmt"
	"strings"

	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/memreq"
	"coaxial/internal/validate"
)

// validation bundles the per-system checkers of the differential
// validation harness (RunConfig.Validate / coaxial.WithValidation): one
// independent DDR5 timing oracle per sub-channel, attached as a command
// observer, and one request-lifecycle checker hooked into send/Complete.
type validation struct {
	lc      *validate.Lifecycle
	oracles []*validate.Oracle
}

// EnableValidation attaches the differential validation harness. Call
// before the first tick; idempotent. Oracles are per-sub-channel command
// observers; the lifecycle checker observes send and Complete.
//
// The harness is observation-only: it never mutates requests or
// schedulers, so a validated run is bit-identical to an unvalidated one.
func (s *System) EnableValidation() {
	if s.val != nil {
		return
	}
	v := &validation{lc: validate.NewLifecycle()}
	attach := func(label string, d *dram.Channel) {
		for si, sub := range d.SubChannels() {
			o := validate.NewOracle(sub.Config(), fmt.Sprintf("%s/sub%d", label, si))
			sub.AttachObserver(o)
			v.oracles = append(v.oracles, o)
		}
	}
	for ch, b := range s.backends {
		switch t := b.(type) {
		case *dram.Channel:
			attach(fmt.Sprintf("ddr%d", ch), t)
		case *cxl.Channel:
			for di, d := range t.DDR() {
				attach(fmt.Sprintf("cxl%d/ddr%d", ch, di), d)
			}
		}
	}
	s.val = v
	// Route arena misuse (double release, foreign request) into the
	// lifecycle report instead of panicking, so a plumbing bug surfaces as
	// a *ValidationError with full context alongside any related findings.
	s.arena.SetFailf(v.lc.Failf)
}

// forEachPending walks every request the memory system currently owns:
// the spill retry queues plus each backend's internal queues (for a CXL
// Channel, including its private device's DDR controllers and the response
// path). For pooled-device ports the shared DDR controllers are covered by the
// topology's registered walkers (AddPendingWalker) — the rack walks each
// device once and dispatches by Request.Host — so a host with several
// ports on one device still visits each request exactly once.
func (s *System) forEachPending(fn func(*memreq.Request)) {
	for ch := range s.backends {
		for i := range s.spillR[ch] {
			fn(s.spillR[ch][i].r)
		}
		for i := range s.spillW[ch] {
			fn(s.spillW[ch][i].r)
		}
	}
	for _, b := range s.backends {
		if w, ok := b.(interface {
			ForEachPending(func(*memreq.Request))
		}); ok {
			w.ForEachPending(fn)
		}
	}
	for _, w := range s.extraPending {
		w(fn)
	}
}

// ValidationError aggregates every violation the harness observed in one
// run: DDR timing-rule breaches (with command history) and request-
// lifecycle invariant failures.
type ValidationError struct {
	// Count is the total number of violations, including any beyond the
	// per-checker storage caps.
	Count int
	// Report is the formatted violation listing.
	Report string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("sim: validation failed: %d invariant violation(s)\n%s", e.Count, e.Report)
}

// validationError runs the end-of-window checks and collapses the
// harness's findings into a single error (nil when every check passed).
// Call after the final syncClock, on the success path only: a cancelled
// or budget-exhausted run legitimately leaves requests in flight.
func (s *System) validationError() error {
	if s.val == nil {
		return nil
	}
	lc := s.val.lc

	// MSHR occupancy: per-core counts bounded by the configured MSHR
	// budget, and their sum must equal the non-discarded in-flight reads.
	held := 0
	for i, c := range s.cores {
		m := c.OutstandingMisses()
		if m < 0 || m > s.cfg.MSHRs {
			lc.Failf("core %d MSHR occupancy %d outside [0, %d] at window end", i, m, s.cfg.MSHRs)
		}
		held += m
	}
	lc.CheckEnd(s.forEachPending, held)

	// Arena handle escape: every request a queue still owns must be a live
	// allocation. A dead one means some component released a request while
	// another still held its pointer — the stale handle would silently read
	// a recycled request.
	s.forEachPending(func(r *memreq.Request) {
		if r != nil && !s.arena.IsLive(r) {
			lc.Failf("escaped handle: request %#x (core %d) present in a memory-system queue after release",
				r.Addr, r.Core)
		}
	})

	// Queue occupancy bounds.
	var extra []string
	checkSub := func(label string, si int, sub *dram.SubChannel) {
		r, w := sub.QueueOccupancy()
		cfg := sub.Config()
		if r < 0 || r > cfg.ReadQueueDepth || w < 0 || w > cfg.WriteQueueDepth {
			extra = append(extra, fmt.Sprintf(
				"%s/sub%d queue occupancy out of bounds: reads %d of %d, writes %d of %d",
				label, si, r, cfg.ReadQueueDepth, w, cfg.WriteQueueDepth))
		}
	}
	checkPort := func(label string, p *cxl.Port) {
		if out := p.Outstanding(); out < 0 || out > p.IngressDepth() {
			extra = append(extra, fmt.Sprintf(
				"%s outstanding count %d outside [0, %d]", label, out, p.IngressDepth()))
		}
	}
	for ch, b := range s.backends {
		switch t := b.(type) {
		case *dram.Channel:
			for si, sub := range t.SubChannels() {
				checkSub(fmt.Sprintf("ddr%d", ch), si, sub)
			}
		case *cxl.Channel:
			checkPort(fmt.Sprintf("cxl%d", ch), t.Port)
			for di, d := range t.DDR() {
				for si, sub := range d.SubChannels() {
					checkSub(fmt.Sprintf("cxl%d/ddr%d", ch, di), si, sub)
				}
			}
		case *cxl.Port:
			// Shared-device DDR occupancy is checked by the rack, which
			// owns the device; only the port-local bound is per-host.
			checkPort(fmt.Sprintf("port%d", ch), t)
		}
	}

	// Oracle end-of-run checks (refresh schedule liveness).
	for _, o := range s.val.oracles {
		o.Quiesce(s.now)
	}

	count := lc.ErrorCount() + len(extra)
	var b strings.Builder
	for _, o := range s.val.oracles {
		count += o.ViolationCount()
		for _, v := range o.Violations() {
			b.WriteString(v.String())
		}
	}
	for _, e := range lc.Errors() {
		b.WriteString("lifecycle: ")
		b.WriteString(e)
		b.WriteByte('\n')
	}
	for _, e := range extra {
		b.WriteString("occupancy: ")
		b.WriteString(e)
		b.WriteByte('\n')
	}
	if count == 0 {
		return nil
	}
	return &ValidationError{Count: count, Report: b.String()}
}
