// Package chaos holds the in-process fault injectors that the dispatch and
// replication tests drive against their own seams: a backend that dies on
// schedule (FlakyBackend) and a peer that fails selected HTTP requests
// until healed (FlapGate). Each fault is checked in the tests of the
// package that must survive it.
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
// stranded jobs elsewhere — a backend dying mid-batch.
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
