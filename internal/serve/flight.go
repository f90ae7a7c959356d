package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"coaxial"
)

// group single-flights identical in-flight points: while a point with some
// flight key is executing, further requests for the same key attach as
// waiters instead of starting a second simulation, and all waiters receive
// the one result. Safe because a flight key fingerprints everything the
// result depends on (coaxial.SuiteJob.Key) and simulations are
// deterministic — sharing is observationally identical to re-running,
// once each waiter stamps its own config names back (Point.stamp).
//
// Cancellation is refcounted: the simulation runs under a context detached
// from any one waiter, so an early canceler detaches without disturbing
// the others; only the last waiter to leave cancels the simulation itself,
// then waits for (and receives) the partial result the engine salvages.
//
// A panicking execution becomes that point's error, stack attached: every
// waiter is released with it and the daemon keeps serving.
type group struct {
	mu    sync.Mutex
	calls map[string]*call //lint:guardedby mu

	// started counts simulations actually launched; coalesced counts
	// waiters beyond the first that attached to an in-flight call. The
	// single-flight tests and /metrics read both.
	started   int //lint:guardedby mu
	coalesced int //lint:guardedby mu
	// panics counts executions that panicked (/metrics).
	panics int //lint:guardedby mu
}

// call is one in-flight point execution.
type call struct {
	g      *group
	cancel context.CancelFunc
	done   chan struct{}

	// Read-only after done closes; the post-close reads carry
	// per-site lockcheck suppressions citing that happens-before edge.
	waiters int             //lint:guardedby group.mu
	sinks   []*progressSink //lint:guardedby group.mu
	out     PointOutcome    //lint:guardedby group.mu
	err     error           //lint:guardedby group.mu
}

// progressSink is one waiter's progress observer. A one-field struct
// (rather than the bare func) so detaching waiters can remove their own
// entry by identity.
type progressSink struct{ fn func(coaxial.Progress) }

// runFunc executes one point under the flight's context, reporting
// progress through the supplied observer.
type runFunc func(ctx context.Context, onProgress func(coaxial.Progress)) (PointOutcome, error)

func newGroup() *group {
	return &group{calls: make(map[string]*call)}
}

// do returns key's outcome, attaching to an in-flight execution when one
// exists and launching run otherwise. onProgress (optional) observes
// progress while attached. When ctx is canceled: non-last waiters detach
// immediately with ctx's error; the last waiter cancels the execution and
// returns its partial outcome and cancellation error.
func (g *group) do(ctx context.Context, key string, onProgress func(coaxial.Progress), run runFunc) (PointOutcome, error) {
	g.mu.Lock()
	c, inFlight := g.calls[key]
	var cctx context.Context
	if !inFlight {
		var cancel context.CancelFunc
		cctx, cancel = context.WithCancel(context.Background())
		c = &call{g: g, cancel: cancel, done: make(chan struct{})}
		g.calls[key] = c
		g.started++
	} else {
		g.coalesced++
	}
	c.waiters++
	var sink *progressSink
	if onProgress != nil {
		sink = &progressSink{fn: onProgress}
		c.sinks = append(c.sinks, sink)
	}
	g.mu.Unlock()

	if !inFlight {
		go g.exec(key, c, cctx, run)
	}

	select {
	case <-c.done:
		//lint:ignore lockcheck receiving on done happens-after exec's final writes and close; out and err are immutable from then on
		return c.out, c.err
	case <-ctx.Done():
	}

	// The waiter's context fired. If the call happened to finish in the
	// same instant, take its result; otherwise detach, and — as the last
	// waiter out — cancel the execution and collect the partials.
	select {
	case <-c.done:
		//lint:ignore lockcheck receiving on done happens-after exec's final writes and close; out and err are immutable from then on
		return c.out, c.err
	default:
	}
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if sink != nil {
		c.dropSink(sink)
	}
	g.mu.Unlock()
	if !last {
		return PointOutcome{}, ctx.Err()
	}
	c.cancel()
	<-c.done
	//lint:ignore lockcheck the receive on done happens-after exec's final writes and close; out and err are immutable from then on
	return c.out, c.err
}

// exec runs the flight body and publishes its outcome.
func (g *group) exec(key string, c *call, ctx context.Context, run runFunc) {
	out, err := g.runIsolated(ctx, c, run)
	g.mu.Lock()
	delete(g.calls, key)
	c.out, c.err = out, err
	g.mu.Unlock()
	close(c.done)
	c.cancel()
}

// runIsolated runs the flight body, turning a panic into its error.
func (g *group) runIsolated(ctx context.Context, c *call, run runFunc) (out PointOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = PointOutcome{}, fmt.Errorf("serve: point panicked: %v\n%s", v, debug.Stack())
			g.mu.Lock()
			g.panics++
			g.mu.Unlock()
		}
	}()
	return run(ctx, c.broadcast)
}

// broadcast fans one progress observation out to the currently-attached
// waiters. The sink list is copied under the lock and invoked outside it,
// so observers may take other locks (the job store's) freely.
func (c *call) broadcast(p coaxial.Progress) {
	c.g.mu.Lock()
	sinks := append([]*progressSink(nil), c.sinks...)
	c.g.mu.Unlock()
	for _, s := range sinks {
		s.fn(p)
	}
}

// dropSink removes one waiter's sink by identity. Caller holds g.mu.
func (c *call) dropSink(sink *progressSink) {
	for i, s := range c.sinks {
		if s == sink {
			c.sinks = append(c.sinks[:i], c.sinks[i+1:]...)
			return
		}
	}
}

// stats reports lifetime launch/coalesce counters.
func (g *group) stats() (started, coalesced int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started, g.coalesced
}

// panicked reports how many executions have panicked.
func (g *group) panicked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.panics
}

// inFlight reports how many distinct points are currently executing.
func (g *group) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
