package sim

import (
	"fmt"
	"sync/atomic"
)

// The event-driven engine loop.
//
// The Section 6.3 rules as stated are O(nodes × cycles): every mesh cycle
// decrements every in-flight message and sweeps every node, even when
// nothing in the fabric can change — the test-side oracle (refEngine,
// reference_test.go) runs them exactly so. Between token arrivals and phase
// completions the machine is static, so this loop advances time to the
// next event instead of ticking every clock:
//
//   - serial and mesh messages are bucketed by absolute arrival clock in
//     timeQs, so an idle clock costs nothing and a bucket pops pre-grouped;
//   - a serial token is delivered at the next node that observes it, not
//     at every node on the way (see "Express delivery" below);
//   - tail release keeps a "rearmost live token" watermark (liveAt counts
//     per position, their running sum liveBehind up to the single TAIL's
//     tracked position) updated on token moves, instead of rescanning
//     every queue and buffer each clock;
//   - executing/service counters and scheduled completions replace the
//     per-cycle node sweep; BusyCycles/ParallelCycles accrue from the
//     counters;
//   - when the next arrival/completion is k cycles away the clock jumps by
//     k (quiesce windows fast-forward in one step), with the preemption
//     contract preserved by polling the context whenever a jump crosses a
//     preemptEvery boundary.
//
// Express delivery. Most serial arrivals change nothing: a REGISTER or
// MEMORY token reaches a node that never looks at it, a HEAD only arms a
// node that still waits for something else, a TAIL parks at a node that
// has already fired and leaves at the same clock — each is sent one hop
// on. A linear send therefore goes straight to the first node where the
// token can act (nodeMeta.observes for MEMORY and REGISTER, rules 4 and 5
// below for HEAD and TAIL; the last node stops everything, and
// branch-addressed sends are delivered at their target as before), found
// by a forward scan and delayed by the sum of the hops it skips, so it
// arrives at the clock it always did and the serial queue is non-empty
// over exactly the same clocks — serialNow, the dead-time skip and stall
// detection cannot tell. Things in the machine that read where a token is
// rather than where it is going each have a rule (the differential suite
// fails when any one is removed):
//
//  1. Same-clock order. Hop by hop, a clock's arrivals are processed
//     sorted by (destination, kind) and, within a tie, in the order of
//     their last hop's push. Messages that skip hops no longer have that
//     push, so each carries its order in serialMsg.ord (nextOrd): a token
//     passing through a node keeps the key it arrived with, as a group of
//     tied tokens keeps its order from hop to hop; a token sent with a
//     stagger, or released during another token's arrival, was queued
//     before any group passing its origin at its departure clock, so it
//     takes a fresh, negated sequence number and sorts first; a token
//     sent unstaggered outside bucket processing (a fire in the mesh
//     phase, a tail release) was queued after that clock's arrivals were
//     processed, so its fresh number stays positive and sorts last.
//  2. The rearmost-TAIL watermark. liveAt counts a message at its
//     destination. That is exact for the backward-transport gate — the
//     jump is a control node, so nothing sent from before it is delivered
//     beyond it, and nothing in flight crosses the span it resets — but a
//     TAIL parked at node p must also wait for every message sent from
//     before p and delivered beyond it, until the clock at which that
//     message virtually arrives at p and moves on: arrive − (pre[to] −
//     pre[p]). parkTail takes the latest such clock as tailHold and queues
//     a wake entry there (tokWake: no token, no event) so the serial phase
//     visits it and the release happens at the hop-by-hop clock.
//  3. Event accounting. EngineStats.Events counts simulated arrivals, so
//     a delivery accounts to−from of them, and finishStats adds, for
//     messages still in flight when a run finishes, times out or is
//     cancelled, the skipped hops whose virtual arrival clock is not after
//     serialNow. The oracle counts the same events one by one
//     (TestEventsAtEveryCap stops both at every cycle).
//  4. HEAD. Hop by hop, HEAD arriving at a non-control node marks it
//     seen, moves on, and fires the node if HEAD was all it lacked. So a
//     HEAD from node i is delivered at the first node that is control,
//     the last node, or ready but for HEAD (headStop), and stamps every
//     node it skips with the clock it virtually passes it (nodeState.
//     headAt); checkFire counts HEAD as seen once serialNow >= headAt. A
//     skipped node that becomes ready but for HEAD before that clock
//     queues one zero-hop HEAD notice at it (from == to), sorted as HEAD's
//     arrival there would be; the notice fires the node at the hop-by-hop
//     clock and place. A notice holds no token: it is not in liveAt,
//     accounts no event, and parkTail, finishStats and rule 5's lag scan
//     skip it. None can be pending at a backward transport (see
//     newDiffEngine), so the span reset has nothing to orphan.
//  5. TAIL. Hop by hop, a TAIL released at node i parks at every node
//     that has already fired and leaves again at the same clock, as long
//     as it stays rearmost. Every node the TAIL has walked past has fired,
//     so nothing new is sent from behind it while it travels, and a message
//     m in flight is behind it at every node both pass exactly when m
//     lags it: arrive_m − pre[m.to] > serialNow − pre[i]. So the TAIL is
//     delivered at the first node past i that is control or return, had
//     not fired at release time, is the last node, or is m.from+1 for a
//     lagging m whose path reaches past i (tailStop) — the node where it
//     would first wait behind m. That last stop is rule 2's tailHold
//     extended to the nodes the TAIL skips.
//
// Every Result field is computed exactly as the oracle computes it; the
// differential tests assert byte-identical MethodRun encodings, which is
// what lets EngineVersion — and therefore every persisted store record —
// stay valid across this rewrite.

// EngineStats reports one engine run's activity.
type EngineStats struct {
	// MeshCycles is the simulated wall mesh-cycle count, including
	// skipped cycles.
	MeshCycles uint64
	// Events counts simulated token arrivals, operand deliveries and phase
	// completions — what a clock-by-clock, hop-by-hop simulation
	// processes, whether or not this loop had to (an express delivery
	// accounts every hop it elides).
	Events uint64
	// Delivered counts the serial, mesh and completion queue entries this
	// loop actually dequeued to simulate Events.
	Delivered uint64
	// Serial splits Delivered's serial queue entries by what they carry.
	Serial SerialDequeues
	// CyclesSkipped counts mesh cycles fast-forwarded without per-cycle
	// work (eventless windows and quiesce stalls).
	CyclesSkipped uint64
}

// SerialDequeues counts serial queue entries by token kind. HEAD counts
// HEAD notices too; Wake counts the entries that only make the loop visit
// a clock.
type SerialDequeues struct {
	Head     uint64 `json:"head"`
	Memory   uint64 `json:"memory"`
	Register uint64 `json:"register"`
	Tail     uint64 `json:"tail"`
	Wake     uint64 `json:"wake"`
}

// Stats returns the run's activity counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Process-wide engine throughput counters, aggregated at the end of every
// event-driven run. Exposed via TotalEngineStats for /metrics gauges and
// the jfbench summary.
var engineTotals struct {
	runs      atomic.Uint64
	cycles    atomic.Uint64
	events    atomic.Uint64
	skipped   atomic.Uint64
	delivered atomic.Uint64
	shared    atomic.Uint64
	serial    [numKinds]atomic.Uint64
}

// EngineTotals is the process-wide engine activity snapshot.
type EngineTotals struct {
	Runs                uint64 `json:"runs"`
	SimulatedMeshCycles uint64 `json:"simulatedMeshCycles"`
	Events              uint64 `json:"events"`
	CyclesSkipped       uint64 `json:"cyclesSkipped"`
	// Delivered is the queue entries dequeued to simulate Events.
	Delivered uint64 `json:"delivered"`
	// Serial splits Delivered's serial queue entries by token kind.
	Serial SerialDequeues `json:"serialDequeued"`
	// PolicyRunsShared counts BP2 results copied from BP1's run because
	// the method never consults the branch policy; their simulated
	// counters are in the totals above, their engine run is not.
	PolicyRunsShared uint64 `json:"policyRunsShared"`
}

// TotalEngineStats snapshots the process-wide engine counters.
func TotalEngineStats() EngineTotals {
	var serial [numKinds]uint64
	for k := range serial {
		serial[k] = engineTotals.serial[k].Load()
	}
	return EngineTotals{
		Runs:                engineTotals.runs.Load(),
		SimulatedMeshCycles: engineTotals.cycles.Load(),
		Events:              engineTotals.events.Load(),
		CyclesSkipped:       engineTotals.skipped.Load(),
		Delivered:           engineTotals.delivered.Load(),
		PolicyRunsShared:    engineTotals.shared.Load(),
		Serial:              byKind(&serial),
	}
}

// byKind names per-kind serial counters.
func byKind(d *[numKinds]uint64) SerialDequeues {
	return SerialDequeues{Head: d[tokHead], Memory: d[tokMemory], Register: d[tokRegister], Tail: d[tokTail], Wake: d[tokWake]}
}

// finishStats closes out the run's accounting and folds it into the
// process totals.
func (e *Engine) finishStats(cycles int) {
	// A message still in flight has virtually arrived at every elided node
	// whose clock is not after serialNow: hop by hop, those arrivals were
	// processed before the run stopped.
	for _, b := range e.serialEv.pending() {
		for k := range b.items {
			m := &b.items[k]
			for h := m.from + 1; h < m.to && b.t-int(e.pre[m.to]-e.pre[h]) <= e.serialNow; h++ {
				e.stats.Events++
			}
		}
	}
	e.stats.MeshCycles = uint64(cycles)
	e.stats.Serial = byKind(&e.dequeued)
	engineTotals.runs.Add(1)
	engineTotals.delivered.Add(e.stats.Delivered)
	for k, v := range e.dequeued {
		engineTotals.serial[k].Add(v)
	}
	e.foldSimulated()
}

// foldSimulated adds the run's simulated counters — what the machine did,
// not what the engine spent — to the process totals.
func (e *Engine) foldSimulated() {
	engineTotals.cycles.Add(e.stats.MeshCycles)
	engineTotals.events.Add(e.stats.Events)
	engineTotals.skipped.Add(e.stats.CyclesSkipped)
}

// buildDist fills the per-deployment distance tables — nextD[i] the serial
// hop to i+1 and pre[i] its running sum, branchD[i] the serial distance to
// i's branch target, and
// meshD[meshOff[i]+k] the mesh distance to Targets[i][k].Consumer — into
// the engine's own buffers: an O(nodes + targets) pass Reset runs once per
// job (the tables survive a job's second policy). They live on the
// engine rather than in a cache keyed by resolution pointer on purpose:
// LRU-evicted deployments re-resolve to fresh pointers, so such a cache
// would pin dead resolutions.
func (e *Engine) buildDist() {
	n := len(e.nodes)
	f, nodeOf := e.cfg.Fabric, e.placement.NodeOf
	total := 0
	for _, tgts := range e.resolution.Targets {
		total += len(tgts)
	}
	e.nextD, e.branchD, e.pre = resized(e.nextD, n), resized(e.branchD, n), resized(e.pre, n)
	e.meshOff, e.meshD = resized(e.meshOff, n), resized(e.meshD, total)
	off := 0
	for i := 0; i < n; i++ {
		e.nextD[i], e.branchD[i] = 0, 0
		if i+1 < n {
			e.nextD[i] = int32(f.SerialDistance(nodeOf[i], nodeOf[i+1]))
			e.pre[i+1] = e.pre[i] + e.nextD[i]
		}
		if mt := &e.meta[i]; mt.flags&metaBranch != 0 && mt.target >= 0 && int(mt.target) < n {
			e.branchD[i] = int32(f.SerialDistance(nodeOf[i], nodeOf[mt.target]))
		}
		e.meshOff[i] = int32(off)
		for _, tg := range e.resolution.Targets[i] {
			e.meshD[off] = int32(f.MeshDistance(nodeOf[i], nodeOf[tg.Consumer]))
			off++
		}
	}
}

// nextOrd is the processing-order key of a message pushed now (rule 1 in
// the header): a token sent on, unstaggered, while its own arrival is being
// processed keeps that arrival's key; any other push takes a fresh sequence
// number — negated, so it sorts ahead of whatever group it later ties with,
// unless it is an unstaggered push made outside bucket processing.
func (e *Engine) nextOrd(tok token, stagger int) int {
	if stagger == 0 && e.arrival != nil && e.arrival.tok == tok {
		return e.arrival.ord
	}
	e.seq++
	if stagger == 0 && e.arrival == nil {
		return e.seq
	}
	return -e.seq
}

// parkTail records the TAIL buffered at node p and works out how long the
// express messages in flight keep it there (rule 2 in the header): one sent
// from before p and delivered beyond it is, hop by hop, a live token
// behind or at p until the clock it virtually arrives at p and is sent on.
// liveAt counts it at its destination, so the TAIL is held until the last
// such clock, and a wake entry makes the serial phase visit it.
func (e *Engine) parkTail(p int) {
	e.tailHeldAt = p
	e.tailHold = 0
	for _, b := range e.serialEv.pending() {
		for k := range b.items {
			if m := &b.items[k]; m.from < p && p < m.to {
				if at := b.t - int(e.pre[m.to]-e.pre[p]); at > e.tailHold {
					e.tailHold = at
				}
			}
		}
	}
	if e.tailHold > e.serialNow {
		e.serialEv.push(e.tailHold, serialMsg{tok: token{kind: tokWake}})
	}
}

// deliverSerialBucket pops the earliest serial bucket (serialNow must
// already equal its time) and processes its arrivals in the hop-by-hop
// order: all same-clock messages leave the in-flight index first, then
// arrive sorted by (destination, kind, ord). Each accounts the arrivals it
// stands for — to-from of them, none for a zero-hop entry. A HEAD notice
// stands for HEAD's virtual arrival at its node, which can only complete
// that node's firing rule.
func (e *Engine) deliverSerialBucket() {
	_, msgs := e.serialEv.takeMin()
	hops := 0
	for i := range msgs {
		msg := &msgs[i]
		if msg.tok.kind < tokTail && msg.from != msg.to {
			e.liveAt[msg.to]--
			if msg.to <= e.tailPos {
				e.liveBehind--
			}
		}
		hops += msg.to - msg.from
		e.dequeued[msg.tok.kind]++
	}
	sortSerialArrivals(msgs)
	e.stats.Events += uint64(hops)
	e.stats.Delivered += uint64(len(msgs))
	for i := range msgs {
		msg := &msgs[i]
		e.arrival = msg
		switch {
		case msg.from != msg.to:
			e.tokenArrives(msg.tok, msg.to)
		case msg.tok.kind == tokHead:
			e.checkFire(msg.to)
		}
	}
	e.arrival = nil
	e.serialEv.recycle(msgs)
}

// skipTarget returns the earliest future wall cycle at which anything can
// happen: a serial arrival entering the cycle's serial budget, an operand
// delivery, a scheduled completion, a quiesce window opening, or the
// timeout bound. Returns cycle itself when this cycle has work.
func (e *Engine) skipTarget(cycle, budget int) int {
	target := e.maxCycles
	if e.quiesceFor > 0 && e.quiesceAt > cycle && e.quiesceAt < target {
		target = e.quiesceAt
	}
	if e.serialEv.n > 0 {
		sc := cycle
		if budget != DrainSerial {
			// The serial phase of cycle c covers absolute serial clocks
			// (serialNow, serialNow+budget]; an arrival at clock T lands
			// in the cycle floor((T-serialNow-1)/budget) ahead.
			sc += (e.serialEv.nextTime() - e.serialNow - 1) / budget
		}
		if sc < target {
			target = sc
		}
	}
	if e.meshEv.n > 0 {
		if mc := cycle + (e.meshEv.nextTime() - e.meshNow); mc < target {
			target = mc
		}
	}
	if e.doneEv.n > 0 {
		if dc := cycle + (e.doneEv.nextTime() - e.meshNow); dc < target {
			target = dc
		}
	}
	if target < cycle {
		target = cycle
	}
	return target
}

// pollPreemptBetween polls the context once if any preemptEvery boundary
// lies strictly between from and to (the loop head re-checks `to` itself).
func (e *Engine) pollPreemptBetween(from, to int) error {
	if e.preemptCtx == nil {
		return nil
	}
	if next := (from/preemptEvery + 1) * preemptEvery; next < to {
		return e.preemptCtx.Err()
	}
	return nil
}

// Run simulates the method to completion (a Return fires) or timeout.
func (e *Engine) Run() (Result, error) {
	m := e.placement.Method
	res := Result{
		Config:    e.cfg.Name,
		Signature: m.Signature(),
		Static:    len(m.Code),
		MaxNode:   e.placement.MaxNode,
	}

	e.injectBundle()

	budget := e.cfg.SerialPerMesh
	cycle := 0
	for {
		if e.preemptCtx != nil && cycle&(preemptEvery-1) == 0 {
			if err := e.preemptCtx.Err(); err != nil {
				e.finishStats(cycle)
				return Result{}, err
			}
		}
		if cycle >= e.maxCycles {
			res.MeshCycles = cycle
			res.Fired = e.fired
			res.TimedOut = true
			e.fillCoverage(&res)
			e.finishStats(cycle)
			return res, nil
		}

		// Quiesced fabric: everything freezes, wall cycles still elapse.
		// Fast-forward the whole window in one jump; queued arrivals stay
		// keyed on the active clocks, which do not advance here.
		if e.quiesceFor > 0 && cycle >= e.quiesceAt && cycle < e.quiesceAt+e.quiesceFor {
			end := e.quiesceAt + e.quiesceFor
			if end > e.maxCycles {
				end = e.maxCycles
			}
			if err := e.pollPreemptBetween(cycle, end); err != nil {
				e.finishStats(cycle)
				return Result{}, err
			}
			e.stats.CyclesSkipped += uint64(end - cycle)
			cycle = end
			continue
		}

		// Dead-time skip: when this cycle has no arrivals or completions
		// the machine state cannot change (tail releases reached their
		// fixpoint at the end of the previous cycle), so jump to the next
		// event, accruing busy counters and serial clocks arithmetically.
		// A fully drained machine must instead fall through and report the
		// stall at this cycle, as a cycle-by-cycle simulation does.
		stalled := e.serialEv.n == 0 && e.meshEv.n == 0 &&
			e.executingCount == 0 && e.serviceCount == 0
		if !stalled {
			if target := e.skipTarget(cycle, budget); target > cycle {
				k := target - cycle
				if e.executingCount >= 1 {
					res.BusyCycles += k
				}
				if e.executingCount >= 2 {
					res.ParallelCycles += k
				}
				if budget != DrainSerial && e.serialEv.n > 0 {
					e.serialNow += k * budget
				}
				if err := e.pollPreemptBetween(cycle, target); err != nil {
					e.finishStats(cycle)
					return Result{}, err
				}
				e.stats.CyclesSkipped += uint64(k)
				cycle = target
				e.meshNow += k
				e.meshTick += k
				continue
			}
		}

		// --- Serial phase: up to SerialPerMesh serial clocks (or drain
		// for the Baseline rule), jumping over arrival-free clocks. ---
		if budget == DrainSerial {
			for {
				e.releasePendingTails()
				if e.serialEv.n == 0 {
					break
				}
				e.serialNow = e.serialEv.nextTime()
				e.deliverSerialBucket()
			}
		} else {
			phaseStart := e.serialNow
			for used := 0; used < budget; {
				e.releasePendingTails()
				if e.serialEv.n == 0 {
					break
				}
				t := e.serialEv.nextTime()
				if t > phaseStart+budget {
					// The queue stays non-empty, so the remaining
					// budget elapses without arrivals.
					e.serialNow = phaseStart + budget
					break
				}
				e.serialNow = t
				used = t - phaseStart
				e.deliverSerialBucket()
			}
		}
		e.releasePendingTails()

		// --- Mesh phase. This cycle's decrement pass happens now:
		// anything pushed from here on is first decremented next cycle.
		e.meshTick++
		if e.meshEv.n > 0 && e.meshEv.nextTime() == e.meshNow {
			_, msgs := e.meshEv.takeMin()
			sortMeshArrivals(msgs)
			e.stats.Events += uint64(len(msgs))
			e.stats.Delivered += uint64(len(msgs))
			for _, msg := range msgs {
				e.meshDeliver(msg)
			}
			e.meshEv.recycle(msgs)
		}
		// Busy accounting snapshots the counters after deliveries and
		// before completions — exactly the set of nodes a per-cycle node
		// sweep finds in their execution phase this cycle.
		if e.executingCount >= 1 {
			res.BusyCycles++
		}
		if e.executingCount >= 2 {
			res.ParallelCycles++
		}
		if e.doneEv.n > 0 && e.doneEv.nextTime() == e.meshNow {
			_, evs := e.doneEv.takeMin()
			sortCompletions(evs)
			e.stats.Delivered += uint64(len(evs))
			for _, ev := range evs {
				n := &e.nodes[ev.node]
				if n.gen != ev.gen {
					continue // node reset since this was scheduled
				}
				e.stats.Events++
				switch n.phase {
				case phaseExecuting:
					e.completeExecution(ev.node)
				case phaseService:
					e.completeService(ev.node)
				}
			}
			e.doneEv.recycle(evs)
		}
		e.releasePendingTails()

		if e.finished {
			res.MeshCycles = cycle + 1
			res.Fired = e.fired
			e.fillCoverage(&res)
			e.finishStats(cycle + 1)
			return res, nil
		}
		if e.serialEv.n == 0 && e.meshEv.n == 0 &&
			e.executingCount == 0 && e.serviceCount == 0 {
			e.finishStats(cycle + 1)
			return res, fmt.Errorf("sim: %s stalled on %s at mesh cycle %d",
				m.Signature(), e.cfg.Name, cycle)
		}
		cycle++
		e.meshNow++ // meshTick already advanced at the mesh phase
	}
}
