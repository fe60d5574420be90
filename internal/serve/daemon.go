package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"javaflow/internal/obs"
	"javaflow/internal/replicate"
	"javaflow/internal/store"
)

// DefaultDrain is the graceful-shutdown window when Daemon.Drain is zero:
// long enough for a full in-flight batch sweep (the server's write timeout
// allows one to run for minutes).
const DefaultDrain = 5 * time.Minute

// DefaultCompactEvery is how often the background compactor re-checks the
// store's garbage ratio when Daemon.CompactEvery is zero.
const DefaultCompactEvery = 30 * time.Second

// Daemon runs the jfserved HTTP service with ordered shutdown. On context
// cancellation (SIGTERM) it:
//
//  1. closes the listener, so no new work is accepted;
//  2. drains in-flight requests — handlers block on their scheduler or
//     dispatch jobs, so waiting for connections waits for the jobs;
//  3. flushes and closes the store, so every result computed by a drained
//     job is durable before the process exits.
//
// Only after all three does Run return: a dispatched job that was in
// flight when the signal arrived is never lost, and a dispatch front
// pointing at this instance sees connection-refused (and reroutes) rather
// than a dead TCP peer holding its jobs.
type Daemon struct {
	// Service is the registry + scheduler the HTTP API serves. Required.
	Service *Service
	// Store, when non-nil, is flushed and closed after the drain. The
	// daemon owns its shutdown; callers must not Close it themselves.
	Store *store.Store
	// Drain bounds the in-flight drain window (0 uses DefaultDrain).
	Drain time.Duration
	// CompactThreshold, when > 0, enables the background compactor: every
	// CompactEvery the store's garbage ratio (superseded duplicates and
	// torn tails as a fraction of segment bytes) is checked, and a
	// store.Compact runs once it reaches the threshold. Only enable on a
	// sole-writer store: Compact in a directory shared with other live
	// writers can reclaim a segment another process is still appending to
	// (see store.Compact).
	CompactThreshold float64
	// CompactEvery is the compactor's check interval (0 uses
	// DefaultCompactEvery).
	CompactEvery time.Duration
	// Replicator, when non-nil, runs its pull-based anti-entropy loop for
	// the life of the daemon, next to the background compactor. The store
	// makes the two mutually exclusive per round (a losing Compact or
	// Ingest returns store.MaintenanceBusyError and retries), so enabling
	// both on one node is safe.
	Replicator *replicate.Replicator
	// Logf, when non-nil, receives operator-facing progress lines
	// (shutdown began, drain finished, compactions).
	Logf func(format string, args ...any)
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Run serves ln until ctx is cancelled, then performs the ordered
// shutdown above. The caller binds ln, so a daemon never fails to listen
// and a caller on port 0 knows the port before Run starts. The returned
// error is the first of: serve failure, drain overrun, store-flush
// failure; nil on a clean shutdown.
func (d *Daemon) Run(ctx context.Context, ln net.Listener) error {
	// Batch sweeps can run minutes: the write timeout is generous rather
	// than absent.
	srv := &http.Server{
		Handler:           NewHandler(d.Service),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	stopCompactor := d.startCompactor()
	stopReplicator := d.startReplicator()
	journal := d.Service.Scheduler().Metrics().Journal()
	journal.Emit("serve", "start", obs.SevInfo, "", "addr", ln.Addr().String())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own; nothing to drain.
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		journal.Emit("serve", "stop", obs.SevWarn, "", "reason", "listener")
		stopCompactor()
		stopReplicator()
		return errors.Join(err, d.closeStore())
	case <-ctx.Done():
	}

	drain := d.Drain
	if drain <= 0 {
		drain = DefaultDrain
	}
	// Flip admission into draining mode before the listener closes: a
	// keep-alive client racing the shutdown gets a typed 429 telling it to
	// retry elsewhere instead of queueing behind a closing daemon.
	d.Service.Admission().SetDraining(true)
	d.logf("shutting down: draining in-flight requests (up to %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	journal.Emit("serve", "stop", obs.SevInfo, "", "reason", "signal")
	// The compactor and replicator must be idle before the store closes.
	stopCompactor()
	stopReplicator()
	// Flush the store even when the drain overran: whatever jobs did
	// complete must still reach disk.
	return errors.Join(err, d.closeStore())
}

// startReplicator launches the anti-entropy pull loop when configured,
// returning an idempotent stop that waits for any in-flight round.
func (d *Daemon) startReplicator() func() {
	if d.Replicator == nil {
		return func() {}
	}
	return d.Replicator.Start()
}

// startCompactor launches the background compaction loop when configured,
// returning a function that stops it and waits for any in-flight Compact.
// The returned stop is idempotent and safe to call when the compactor
// never started.
func (d *Daemon) startCompactor() func() {
	if d.Store == nil || d.CompactThreshold <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.compactLoop(stop)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			wg.Wait()
		})
	}
}

// compactLoop periodically compacts the store once its garbage ratio
// passes the threshold — the ROADMAP's background compaction trigger.
func (d *Daemon) compactLoop(stop <-chan struct{}) {
	every := d.CompactEvery
	if every <= 0 {
		every = DefaultCompactEvery
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		rep := d.Store.Admin()
		if rep.GarbageRatio < d.CompactThreshold {
			continue
		}
		if err := d.Store.Compact(); err != nil {
			d.logf("auto-compact: %v", err)
			continue
		}
		after := d.Store.Admin()
		d.logf("auto-compact: garbage %.0f%% >= %.0f%% — %d segments / %d bytes -> %d segments / %d bytes",
			100*rep.GarbageRatio, 100*d.CompactThreshold,
			rep.Segments, rep.DiskBytes, after.Segments, after.DiskBytes)
	}
}

// closeStore flushes and closes the store, reporting the first append
// failure of the store's lifetime. Nil store is a no-op.
func (d *Daemon) closeStore() error {
	if d.Store == nil {
		return nil
	}
	return d.Store.Close()
}
