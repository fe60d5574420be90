// Package admit is the overload-protection layer threaded through
// serve → dispatch → replicate: bounded per-class admission with typed
// 429-shaped rejections and Retry-After derived from observed service
// rate, deadline propagation over the X-Javaflow-Deadline header, and
// token-bucket retry budgets with decorrelated-jitter backoff.
//
// Load-bearing invariant: overload degrades predictably instead of
// collapsing — over-cap work is rejected in O(1) with a typed
// *OverloadError before it costs a goroutine, a queue slot or an engine
// run; admitted work is never perturbed (admission is two atomic ops on
// the hot path), and a rejected or shed request tells its caller exactly
// when to come back. A nil *Controller is a valid no-op that admits
// everything, so single-node tests and embedded schedulers pay nothing.
package admit

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"javaflow/internal/obs"
)

// Class partitions admission capacity by work type, so a flood of batch
// sweeps cannot starve point runs and replication traffic keeps its own
// lane during serving floods.
type Class string

const (
	// ClassRun is a point execution: POST /v1/run.
	ClassRun Class = "run"
	// ClassBatch is a population sweep: POST /v1/batch (buffered or
	// streaming). One admission covers the whole sweep, so the cap bounds
	// concurrent sweeps, not jobs.
	ClassBatch Class = "batch"
	// ClassReplicate covers the replication surface: segment exports,
	// manifest reads, forced syncs and gossip notifications.
	ClassReplicate Class = "replicate"
)

// Classes lists every admission class in stable order.
func Classes() []Class { return []Class{ClassRun, ClassBatch, ClassReplicate} }

// Defaults for Options fields left zero.
const (
	DefaultRunCap       = 256
	DefaultBatchCap     = 4
	DefaultReplicateCap = 32

	// minRetryAfter / maxRetryAfter clamp the Retry-After hint: never
	// tell a client "0" (it would hammer) and never park it for minutes
	// on a queue that drains in seconds.
	minRetryAfter = 1 * time.Second
	maxRetryAfter = 60 * time.Second
)

// Options configures a Controller.
type Options struct {
	// RunCap / BatchCap / ReplicateCap bound how many requests of each
	// class may be admitted (queued or executing) at once. <=0 uses the
	// defaults above; the caps are independent lanes, not a shared pool.
	RunCap, BatchCap, ReplicateCap int
	// Parallelism is the service's drain concurrency (the scheduler's
	// worker count) used in the Retry-After arithmetic; <=0 uses 1.
	Parallelism int
	// Registry receives the per-class service-time histograms. Nil leaves
	// them unregistered. The gauges and counters are Stats fields, which
	// the node's /metrics renders.
	Registry *obs.Registry
	// Journal receives admission state transitions (over-cap rejections,
	// deadline sheds, draining flips) as structured events. Nil disables
	// event recording.
	Journal *obs.Journal
	// Now is the clock (nil uses time.Now). Tests inject a fake.
	Now func() time.Time
}

// classState is one class's lane: its cap, live depth, lifetime
// counters, and the service-time histogram Retry-After derives from.
type classState struct {
	class    Class
	cap      int64
	depth    atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	shed     atomic.Int64
	service  *obs.Histogram
}

// Controller is the per-daemon admission gate. All methods are safe for
// concurrent use; a nil *Controller admits everything and records
// nothing.
type Controller struct {
	classes     map[Class]*classState
	order       []*classState
	parallelism int64
	draining    atomic.Bool
	now         func() time.Time
	journal     *obs.Journal
}

// New builds a controller from opts and registers its histograms.
func New(opts Options) *Controller {
	caps := map[Class]int{
		ClassRun:       pick(opts.RunCap, DefaultRunCap),
		ClassBatch:     pick(opts.BatchCap, DefaultBatchCap),
		ClassReplicate: pick(opts.ReplicateCap, DefaultReplicateCap),
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Controller{
		classes:     make(map[Class]*classState, len(caps)),
		parallelism: int64(pick(opts.Parallelism, 1)),
		now:         now,
		journal:     opts.Journal,
	}
	for _, class := range Classes() {
		cs := &classState{
			class: class,
			cap:   int64(caps[class]),
			service: opts.Registry.NewHistogram("javaflow_admit_service_duration_seconds",
				"Admitted-request service time per class (admission to release).", "class", string(class)),
		}
		c.classes[class] = cs
		c.order = append(c.order, cs)
	}
	return c
}

func pick(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// OverloadError is the typed rejection: the lane is at cap. The HTTP
// layer maps it to 429 Too Many Requests with a Retry-After header.
type OverloadError struct {
	Class      Class
	Depth, Cap int64
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("admit: %s queue at cap (%d/%d), retry after %v",
		e.Class, e.Depth, e.Cap, e.RetryAfter)
}

// RetryAfterSeconds renders the hint for the Retry-After header: whole
// seconds, rounded up, never zero.
func (e *OverloadError) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// Admit claims one slot in the class's lane. On success it returns a
// release that must be called exactly once when the request finishes
// (releasing files the service time the Retry-After arithmetic feeds
// on). At cap — or while the controller drains for shutdown — it
// returns a *OverloadError carrying the Retry-After hint, and the
// request must not execute. Admission order is arrival order: slots
// free oldest-first as admitted work completes, so under a flood the
// oldest admitted requests finish while the newest arrivals are the
// ones rejected.
func (c *Controller) Admit(class Class) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	cs := c.classes[class]
	if cs == nil {
		return func() {}, nil
	}
	if c.draining.Load() {
		cs.rejected.Add(1)
		return nil, c.overload(cs, cs.depth.Load())
	}
	depth := cs.depth.Add(1)
	if depth > cs.cap {
		cs.depth.Add(-1)
		cs.rejected.Add(1)
		c.journal.Emit("admit", "reject", obs.SevWarn, "",
			"class", string(cs.class), "cap", strconv.FormatInt(cs.cap, 10))
		return nil, c.overload(cs, depth-1)
	}
	cs.admitted.Add(1)
	start := c.now()
	var released atomic.Bool
	return func() {
		if released.Swap(true) {
			return
		}
		cs.service.Record(c.now().Sub(start))
		cs.depth.Add(-1)
	}, nil
}

// overload builds the typed rejection for one lane at the given depth.
func (c *Controller) overload(cs *classState, depth int64) *OverloadError {
	return &OverloadError{
		Class:      cs.class,
		Depth:      depth,
		Cap:        cs.cap,
		RetryAfter: c.retryAfter(cs, depth),
	}
}

// retryAfter estimates when a rejected caller should come back: the
// time for the lane's current depth to drain at the observed service
// rate — depth × mean service time ÷ parallelism — clamped to
// [1s, 60s]. With no observations yet (cold daemon mid-flood) the floor
// applies, which is exactly the "come back shortly" a cold queue wants.
func (c *Controller) retryAfter(cs *classState, depth int64) time.Duration {
	snap := cs.service.Snapshot()
	mean := snap.Mean()
	drain := time.Duration(depth) * mean / time.Duration(c.parallelism)
	if drain < minRetryAfter {
		return minRetryAfter
	}
	if drain > maxRetryAfter {
		return maxRetryAfter
	}
	return drain
}

// RetryAfter reports the current Retry-After hint for a class without
// rejecting anything — the serve layer stamps it on deadline sheds too,
// so a shed caller and a rejected caller get the same guidance.
func (c *Controller) RetryAfter(class Class) time.Duration {
	if c == nil {
		return minRetryAfter
	}
	cs := c.classes[class]
	if cs == nil {
		return minRetryAfter
	}
	return c.retryAfter(cs, cs.depth.Load())
}

// RecordShed counts one expired-on-arrival request against a class.
func (c *Controller) RecordShed(class Class) {
	if c == nil {
		return
	}
	if cs := c.classes[class]; cs != nil {
		cs.shed.Add(1)
		c.journal.Emit("admit", "shed", obs.SevWarn, "", "class", string(class))
	}
}

// Depth reports how many requests a class currently has admitted.
func (c *Controller) Depth(class Class) int64 {
	if c == nil {
		return 0
	}
	cs := c.classes[class]
	if cs == nil {
		return 0
	}
	return cs.depth.Load()
}

// SetDraining flips shutdown mode: while draining, every Admit rejects
// with the usual typed overload error so keep-alive clients are told to
// retry elsewhere instead of queueing behind a closing listener.
// Already-admitted work is unaffected and drains normally.
func (c *Controller) SetDraining(v bool) {
	if c == nil {
		return
	}
	if c.draining.Swap(v) != v {
		c.journal.Emit("admit", "draining", obs.SevWarn, "",
			"on", strconv.FormatBool(v))
	}
}

// ClassStats is one lane's slice of Stats.
type ClassStats struct {
	Class Class `json:"class" prom:",label=class"`
	// Cap is the lane's admission bound; Depth the current admitted
	// count (queued + executing).
	Cap   int64 `json:"cap" prom:"javaflow_admit_queue_cap,gauge" help:"Admission cap per class."`
	Depth int64 `json:"depth" prom:"javaflow_admit_queue_depth,gauge" help:"Requests currently admitted (queued or executing) per class."`
	// Admitted / Rejected / DeadlineSheds are lifetime counters.
	Admitted      int64 `json:"admitted" prom:"javaflow_admit_admitted_total,counter" help:"Requests admitted per class."`
	Rejected      int64 `json:"rejected" prom:"javaflow_admit_rejections_total,counter" help:"Requests rejected over-cap (typed 429) per class."`
	DeadlineSheds int64 `json:"deadlineSheds" prom:"javaflow_admit_deadline_sheds_total,counter" help:"Requests shed expired-on-arrival per class."`
	// MeanServiceMS is the observed mean service time feeding the
	// Retry-After arithmetic.
	MeanServiceMS float64 `json:"meanServiceMs"`
	// RetryAfterMS is the hint a rejection issued right now would carry.
	RetryAfterMS float64 `json:"retryAfterMs"`
}

// Stats is the controller's GET /metrics block.
type Stats struct {
	Draining bool         `json:"draining"`
	Classes  []ClassStats `json:"classes"`
}

// Stats snapshots every lane.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{Draining: c.draining.Load()}
	for _, cs := range c.order {
		depth := cs.depth.Load()
		s.Classes = append(s.Classes, ClassStats{
			Class:         cs.class,
			Cap:           cs.cap,
			Depth:         depth,
			Admitted:      cs.admitted.Load(),
			Rejected:      cs.rejected.Load(),
			DeadlineSheds: cs.shed.Load(),
			MeanServiceMS: float64(cs.service.Snapshot().Mean()) / float64(time.Millisecond),
			RetryAfterMS:  float64(c.retryAfter(cs, depth)) / float64(time.Millisecond),
		})
	}
	return s
}
