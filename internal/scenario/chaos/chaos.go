// Package chaos holds the in-process fault injectors the scenario harness
// schedules against the dispatch and replication seams. They were promoted
// from one-off test doubles (PR 3's mid-batch backend death, PR 5's flapping
// replication peer) into reusable machinery: the fault tests and the
// `jfbench -scenario` chaos tiers now drive the same code.
//
// The package deliberately does not import internal/dispatch: Backend
// mirrors dispatch.Backend structurally, so FlakyBackend both wraps and
// satisfies it while staying importable from dispatch's own internal tests.
package chaos

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

// Backend is structurally identical to dispatch.Backend.
type Backend interface {
	Name() string
	Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error)
}

// FlakyBackend wraps a Backend and kills it on schedule: after FailAfter
// successful calls (when >= 0), or whenever Kill has switched it off. Errors
// are transient from dispatch's point of view, so the ring retries the
// stranded jobs elsewhere — exactly the mid-batch death drill.
type FlakyBackend struct {
	Inner Backend
	// FailAfter is how many calls succeed before the backend dies;
	// negative means it only dies via Kill.
	FailAfter int64

	calls atomic.Int64
	dead  atomic.Bool
}

// Name reports the wrapped backend's name.
func (f *FlakyBackend) Name() string { return f.Inner.Name() }

// Run proxies to the wrapped backend until the death schedule fires.
func (f *FlakyBackend) Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error) {
	n := f.calls.Add(1)
	if f.dead.Load() || (f.FailAfter >= 0 && n > f.FailAfter) {
		return sim.MethodRun{}, fmt.Errorf("chaos: backend %s is dead", f.Inner.Name())
	}
	return f.Inner.Run(ctx, job, maxCycles)
}

// Kill switches the backend off immediately.
func (f *FlakyBackend) Kill() { f.dead.Store(true) }

// Revive brings a killed backend back and resets the call clock.
func (f *FlakyBackend) Revive() {
	f.dead.Store(false)
	f.calls.Store(0)
}

// Calls reports how many Run attempts the backend has seen.
func (f *FlakyBackend) Calls() int64 { return f.calls.Load() }

// FlapGate wraps an http.Handler and, while down, rejects matching requests
// with 500s — a flapping replication peer. Match selects which requests
// fault (nil = all). Down/Up flip the gate at any time, including from a
// request in flight.
type FlapGate struct {
	Inner http.Handler
	// Match limits faulting to selected requests, e.g. one segment path.
	Match func(r *http.Request) bool

	down   atomic.Bool
	faults atomic.Int64
}

// ServeHTTP rejects matching requests while the gate is down.
func (g *FlapGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() && (g.Match == nil || g.Match(r)) {
		g.faults.Add(1)
		http.Error(w, "chaos: peer flapping", http.StatusInternalServerError)
		return
	}
	g.Inner.ServeHTTP(w, r)
}

// Down starts faulting matching requests.
func (g *FlapGate) Down() { g.down.Store(true) }

// Up heals the peer.
func (g *FlapGate) Up() { g.down.Store(false) }

// Faults reports how many requests the gate rejected.
func (g *FlapGate) Faults() int64 { return g.faults.Load() }

// SlowGate wraps an http.Handler and, while slowed, holds matching requests
// for Delay before serving them — a peer that is alive at the TCP level but
// wedged at the application level. Against a dispatch client it proves
// transport header timeouts fail the attempt instead of pinning an inflight
// slot. (It cannot fill an admission lane: a request held here has not
// been admitted yet.)
// The hold aborts early if the caller gives up (request context canceled),
// so abandoned requests do not leak goroutines for the full delay.
type SlowGate struct {
	Inner http.Handler
	// Match limits slowing to selected requests, e.g. POST /v1/run
	// (nil = all).
	Match func(r *http.Request) bool
	// Delay is how long each matching request is held.
	Delay time.Duration

	slow    atomic.Bool
	delayed atomic.Int64
}

// ServeHTTP holds matching requests while the gate is slowed.
func (g *SlowGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.slow.Load() && (g.Match == nil || g.Match(r)) {
		g.delayed.Add(1)
		t := time.NewTimer(g.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	g.Inner.ServeHTTP(w, r)
}

// Slow starts holding matching requests.
func (g *SlowGate) Slow() { g.slow.Store(true) }

// Fast heals the peer.
func (g *SlowGate) Fast() { g.slow.Store(false) }

// Delayed reports how many requests the gate held.
func (g *SlowGate) Delayed() int64 { return g.delayed.Load() }
