package sim

import (
	"context"
	"fmt"
	"sort"

	"javaflow/internal/bytecode"
	"javaflow/internal/fabric"
)

// refEngine is the oracle the engine is differentially tested against: the
// Section 6.3 token-bundle rules transcribed clock by clock and hop by hop,
// with no concession to speed. Every serial clock decrements every token in
// flight, every mesh cycle sweeps every node, a token moves one physical
// hop at a time whatever the node it reaches does with it, and releasing
// the TAIL rescans every queue and buffer. It reads the bytecode and the
// fabric's distances directly and shares with Engine only the model —
// Config, Result, Predictor, ExecCycles, the service-cycle constants,
// DrainSerial and DefaultMaxMeshCycles — so a mistake in the engine's
// tables, queues or watermark cannot be repeated here
// (TestReferenceIndependent keeps it that way).
//
// It defines the engine's simulated counters: events counts every token
// arrival, operand delivery and phase completion it processes, cycles the
// mesh cycles it ran.
type refEngine struct {
	// Options, as SetMaxCycles, EnableFolding, ScheduleQuiesce and
	// SetPreempt set them on an Engine.
	cycleCap  int // 0 = DefaultMaxMeshCycles
	fold      bool
	qAt, qFor int // quiesce window; qFor == 0 disables it
	ctx       context.Context

	events, cycles uint64

	conf   Config
	res    *fabric.Resolution
	prog   []bytecode.Instruction
	bp     *Predictor
	cells  []refNode
	serial []refSerial // tokens in flight on the ordered network
	mesh   []refMesh   // operands in flight on the mesh
	count  int         // instructions executed, folded transfers excluded
	done   bool        // a return fired
}

// refPollEvery is how often, in mesh cycles, a cancellable run polls its
// context.
const refPollEvery = 4096

// Instruction Data Unit phases (Figure 13).
const (
	refReady = iota
	refExecuting
	refService // storage read outstanding
	refFired
)

// Token kinds in bundle order (Figure 23).
const (
	refHead = iota
	refMemory
	refRegister
	refTail
)

type refToken struct {
	kind int
	reg  int // local register of a REGISTER token
}

type refSerial struct {
	tok   refToken
	to    int // next node on its way
	delay int // serial clocks left
}

type refMesh struct {
	to    int // consumer
	delay int // mesh cycles left
}

type refNode struct {
	phase                      int
	headSeen, memSeen, regSeen bool
	pops                       int // operands received
	held                       []refToken
	execLeft, serviceLeft      int
	taken                      bool // control decision made when it fired
	everFired                  bool // coverage across loop iterations
}

func newRefEngine(conf Config, res *fabric.Resolution, p BranchPolicy) *refEngine {
	prog := res.Placement.Method.Code
	return &refEngine{conf: conf, res: res, prog: prog, bp: NewPredictor(p), cells: make([]refNode, len(prog))}
}

// simulate runs the method to a fired return, the cycle cap, a stall or a
// cancelled context.
func (r *refEngine) simulate() (Result, error) {
	m := r.res.Placement.Method
	out := Result{Config: r.conf.Name, Signature: m.Signature(), Static: len(m.Code), MaxNode: r.res.Placement.MaxNode}
	cycleCap := r.cycleCap
	if cycleCap == 0 {
		cycleCap = DefaultMaxMeshCycles
	}

	// The bundle enters at instruction 0, one serial clock apart: HEAD,
	// MEMORY, a REGISTER per local, TAIL.
	bundle := []refToken{{kind: refHead}, {kind: refMemory}}
	for reg := 0; reg < m.MaxLocals; reg++ {
		bundle = append(bundle, refToken{kind: refRegister, reg: reg})
	}
	bundle = append(bundle, refToken{kind: refTail})
	for k, t := range bundle {
		r.serial = append(r.serial, refSerial{tok: t, to: 0, delay: 1 + k})
	}

	for cycle := 0; ; cycle++ {
		if r.ctx != nil && cycle%refPollEvery == 0 {
			if err := r.ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if cycle >= cycleCap {
			out.MeshCycles, out.Fired, out.TimedOut = cycle, r.count, true
			r.coverage(&out)
			r.cycles = uint64(cycle)
			return out, nil
		}
		// Quiesced: nothing moves, cycles still elapse.
		if r.qFor > 0 && cycle >= r.qAt && cycle < r.qAt+r.qFor {
			continue
		}

		// Serial phase: up to SerialPerMesh serial clocks, or until the
		// network drains (the Baseline rule).
		budget := r.conf.SerialPerMesh
		for s := 0; budget == DrainSerial || s < budget; s++ {
			r.releaseTails()
			if len(r.serial) == 0 {
				break
			}
			r.tickSerial()
		}
		r.releaseTails()

		// Mesh phase: one mesh clock.
		executing := r.tickMesh()
		r.releaseTails()
		if executing >= 1 {
			out.BusyCycles++
		}
		if executing >= 2 {
			out.ParallelCycles++
		}

		if r.done {
			out.MeshCycles, out.Fired = cycle+1, r.count
			r.coverage(&out)
			r.cycles = uint64(cycle + 1)
			return out, nil
		}
		if len(r.serial) == 0 && len(r.mesh) == 0 && !r.busy() {
			r.cycles = uint64(cycle + 1)
			return out, fmt.Errorf("sim: %s stalled on %s at mesh cycle %d", m.Signature(), r.conf.Name, cycle)
		}
	}
}

func (r *refEngine) coverage(out *Result) {
	for i := range r.cells {
		if r.cells[i].everFired {
			out.Distinct++
		}
	}
}

func (r *refEngine) busy() bool {
	for i := range r.cells {
		if p := r.cells[i].phase; p == refExecuting || p == refService {
			return true
		}
	}
	return false
}

// ---- instruction facts, read from the bytecode ----

func (r *refEngine) group(i int) bytecode.Group { return r.prog[i].Group() }

// control nodes buffer the whole bundle until they fire (Section 6.3,
// Control Flow Operations); calls pass tokens through.
func (r *refEngine) control(i int) bool {
	g := r.group(i)
	return g == bytecode.GroupControl || g == bytecode.GroupReturn
}

// ordered nodes take part in MEMORY_TOKEN ordering: array and field
// accesses, not constant-pool loads.
func (r *refEngine) ordered(i int) bool {
	g := r.group(i)
	return g == bytecode.GroupMemRead || g == bytecode.GroupMemWrite
}

// folded nodes are the pure data transfers the Section 6.4 folding
// enhancement eliminates: they fire in no time and do not count.
func (r *refEngine) folded(i int) bool {
	g := r.group(i)
	return r.fold && (g == bytecode.GroupLocalRead || g == bytecode.GroupMove)
}

// local is the register node i accesses, or -1.
func (r *refEngine) local(i int) int {
	if reg, ok := r.prog[i].LocalIndex(); ok {
		return reg
	}
	return -1
}

func (r *refEngine) serialHops(from, to int) int {
	nodeOf := r.res.Placement.NodeOf
	return r.conf.Fabric.SerialDistance(nodeOf[from], nodeOf[to])
}

func (r *refEngine) meshHops(from, to int) int {
	nodeOf := r.res.Placement.NodeOf
	return r.conf.Fabric.MeshDistance(nodeOf[from], nodeOf[to])
}

// ---- the serial network ----

// sendOn moves t from node i one hop down the linear order, `stagger`
// clocks behind the head of its bundle; past the last node it is dropped.
func (r *refEngine) sendOn(t refToken, i, stagger int) {
	if i+1 < len(r.cells) {
		r.serial = append(r.serial, refSerial{tok: t, to: i + 1, delay: r.serialHops(i, i+1) + stagger})
	}
}

// sendTo addresses t from the branch at `from` straight to its target.
func (r *refEngine) sendTo(t refToken, from, to, stagger int) {
	if to < len(r.cells) {
		r.serial = append(r.serial, refSerial{tok: t, to: to, delay: r.serialHops(from, to) + stagger})
	}
}

// tickSerial advances the serial network one clock and processes what
// arrives, by destination, then token kind, then queue order.
func (r *refEngine) tickSerial() {
	var arrived []refSerial
	kept := r.serial[:0]
	for _, s := range r.serial {
		if s.delay--; s.delay <= 0 {
			arrived = append(arrived, s)
		} else {
			kept = append(kept, s)
		}
	}
	r.serial = kept
	sort.SliceStable(arrived, func(a, b int) bool {
		if arrived[a].to != arrived[b].to {
			return arrived[a].to < arrived[b].to
		}
		return arrived[a].tok.kind < arrived[b].tok.kind
	})
	r.events += uint64(len(arrived))
	for _, s := range arrived {
		r.arrive(s.tok, s.to)
	}
}

// arrive applies the per-group token rules at node i.
func (r *refEngine) arrive(t refToken, i int) {
	n := &r.cells[i]
	in := &r.prog[i]
	// TAIL always parks; releaseTails moves it on.
	if t.kind == refTail {
		n.held = append(n.held, t)
		r.tryFire(i)
		return
	}
	// A control node buffers everything until it fires; after a forward
	// or fall-through decision it routes latecomers along the decided
	// path, after a backward-taken one it keeps buffering until TAIL.
	if r.control(i) {
		if n.phase == refFired && (!in.IsBranch() || !n.taken || int(in.Target) > i) {
			if in.IsBranch() && n.taken && int(in.Target) > i {
				r.sendTo(t, i, int(in.Target), 0)
			} else {
				r.sendOn(t, i, 0)
			}
			return
		}
		if t.kind == refHead {
			n.headSeen = true
		}
		n.held = append(n.held, t)
		r.tryFire(i)
		return
	}
	switch t.kind {
	case refHead:
		n.headSeen = true
		r.sendOn(t, i, 0)
		r.tryFire(i)
	case refMemory:
		if r.ordered(i) && n.phase == refReady {
			n.memSeen = true
			n.held = append(n.held, t)
			r.tryFire(i)
			return
		}
		r.sendOn(t, i, 0)
	case refRegister:
		if r.local(i) != t.reg {
			r.sendOn(t, i, 0)
			return
		}
		switch r.group(i) {
		case bytecode.GroupLocalRead, bytecode.GroupLocalInc:
			if n.phase == refReady {
				n.regSeen = true
				n.held = append(n.held, t)
				r.tryFire(i)
				return
			}
			r.sendOn(t, i, 0)
		case bytecode.GroupLocalWrite:
			// The write kills the value; its own fire emits the new one.
		default:
			r.sendOn(t, i, 0)
		}
	}
}

func (r *refEngine) hasTail(i int) bool {
	for _, t := range r.cells[i].held {
		if t.kind == refTail {
			return true
		}
	}
	return false
}

// rearmost reports whether no token but the TAIL is in flight to, or
// buffered at, node i or any node before it: TAIL_TOKEN never passes
// another token.
func (r *refEngine) rearmost(i int) bool {
	for _, s := range r.serial {
		if s.tok.kind != refTail && s.to <= i {
			return false
		}
	}
	for k := 0; k <= i; k++ {
		for _, t := range r.cells[k].held {
			if t.kind != refTail {
				return false
			}
		}
	}
	return true
}

// releaseTails lets every parked TAIL whose node has fired move on once
// it is rearmost; at a backward-taken jump it triggers the transport.
func (r *refEngine) releaseTails() {
	for i := range r.cells {
		n := &r.cells[i]
		if n.phase != refFired || !r.hasTail(i) {
			continue
		}
		in := &r.prog[i]
		jump := r.control(i) && in.IsBranch() && n.taken
		if jump && int(in.Target) <= i {
			r.transport(i)
			continue
		}
		if in.IsReturn() || !r.rearmost(i) {
			continue // a return consumes its TAIL
		}
		for k, t := range n.held {
			if t.kind == refTail {
				n.held = append(n.held[:k], n.held[k+1:]...)
				break
			}
		}
		if jump {
			r.sendTo(refToken{kind: refTail}, i, int(in.Target), 0)
		} else {
			r.sendOn(refToken{kind: refTail}, i, 0)
		}
	}
}

// release sends node i's buffered tokens on in kind order, one serial clock
// apart — to `target`, or down the linear order when target < 0. A parked
// TAIL stays for releaseTails.
func (r *refEngine) release(i, target int) {
	n := &r.cells[i]
	sort.SliceStable(n.held, func(a, b int) bool { return n.held[a].kind < n.held[b].kind })
	var tail []refToken
	stagger := 0
	for _, t := range n.held {
		if t.kind == refTail {
			tail = append(tail, t)
			continue
		}
		if target < 0 {
			r.sendOn(t, i, stagger)
		} else {
			r.sendTo(t, i, target, stagger)
		}
		stagger++
	}
	n.held = tail
}

// releaseMemory sends a held MEMORY token on.
func (r *refEngine) releaseMemory(i int) {
	n := &r.cells[i]
	for k, t := range n.held {
		if t.kind == refMemory {
			n.held = append(n.held[:k], n.held[k+1:]...)
			r.sendOn(t, i, 0)
			return
		}
	}
}

// transport moves the bundle up the reverse network once a fired
// backward-taken jump holds the TAIL and nothing is in flight toward it or
// buffered before it, resetting the loop span — the jump included — to
// ready (Section 6.3: "each instruction from the same thread/class/method
// must also reset").
func (r *refEngine) transport(i int) {
	n := &r.cells[i]
	in := &r.prog[i]
	if n.phase != refFired || !n.taken || !in.IsBranch() || int(in.Target) > i || !r.hasTail(i) {
		return
	}
	for _, s := range r.serial {
		if s.to <= i {
			return
		}
	}
	for k := 0; k < i; k++ {
		if len(r.cells[k].held) > 0 {
			return
		}
	}
	bundle := n.held
	for k := int(in.Target); k <= i; k++ {
		r.cells[k] = refNode{everFired: r.cells[k].everFired}
	}
	sort.SliceStable(bundle, func(a, b int) bool { return bundle[a].kind < bundle[b].kind })
	hops := r.serialHops(i, int(in.Target))
	for k, t := range bundle {
		r.serial = append(r.serial, refSerial{tok: t, to: int(in.Target), delay: hops + k})
	}
}

// ---- firing and the mesh ----

// tryFire starts node i's execution once its firing rule holds.
func (r *refEngine) tryFire(i int) {
	n := &r.cells[i]
	if n.phase != refReady {
		return
	}
	in := &r.prog[i]
	g := in.Group()
	switch g {
	case bytecode.GroupLocalRead, bytecode.GroupLocalInc:
		if !n.headSeen || !n.regSeen {
			return
		}
	case bytecode.GroupMemRead, bytecode.GroupMemWrite:
		if !n.headSeen || !n.memSeen || n.pops < int(in.Pop) {
			return
		}
	case bytecode.GroupReturn:
		if !n.headSeen || n.pops < int(in.Pop) || !r.hasTail(i) {
			return
		}
	case bytecode.GroupControl:
		if !n.headSeen || n.pops < int(in.Pop) {
			return
		}
		// The direction is decided now; a backward-taken jump also needs
		// the TAIL before its bundle moves.
		switch {
		case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
			n.taken = true
		case int(in.Target) > i:
			n.taken = r.bp.Forward(i)
		default:
			n.taken = r.bp.Backward(i)
		}
	default:
		if !n.headSeen || n.pops < int(in.Pop) {
			return
		}
	}
	n.phase = refExecuting
	n.execLeft = ExecCycles(g)
	if g == bytecode.GroupCall || g == bytecode.GroupSpecial {
		n.execLeft += GPPServiceCycles
	}
	if r.folded(i) {
		r.finishExecution(i)
	}
}

// finishExecution ends node i's execution phase: a storage read waits for
// memory, a write posts; both pass the MEMORY token on at once.
func (r *refEngine) finishExecution(i int) {
	switch r.group(i) {
	case bytecode.GroupMemRead:
		r.cells[i].phase = refService
		r.cells[i].serviceLeft = MemoryServiceCycles
		r.releaseMemory(i)
		return
	case bytecode.GroupMemWrite:
		r.releaseMemory(i)
	}
	r.fire(i)
}

// fire marks node i fired, sends its operands to every consumer and
// releases its buffered tokens.
func (r *refEngine) fire(i int) {
	n := &r.cells[i]
	n.phase = refFired
	n.everFired = true
	if !r.folded(i) {
		r.count++
	}
	in := &r.prog[i]
	if in.Push > 0 {
		for _, tg := range r.res.TargetsOf(i) {
			r.mesh = append(r.mesh, refMesh{to: int(tg.Consumer), delay: r.meshHops(i, int(tg.Consumer))})
		}
	}
	switch in.Group() {
	case bytecode.GroupReturn:
		r.done = true
	case bytecode.GroupLocalWrite:
		r.sendOn(refToken{kind: refRegister, reg: r.local(i)}, i, 0)
		r.release(i, -1)
	case bytecode.GroupControl:
		switch {
		case !in.IsBranch() || !n.taken:
			r.release(i, -1)
		case int(in.Target) > i:
			r.release(i, int(in.Target))
		default:
			r.transport(i)
		}
	default:
		r.release(i, -1)
	}
}

// tickMesh advances the mesh one cycle — operand deliveries, then every
// node's execution or service countdown in node order — and returns how
// many nodes were executing.
func (r *refEngine) tickMesh() int {
	var arrived []refMesh
	kept := r.mesh[:0]
	for _, d := range r.mesh {
		if d.delay--; d.delay <= 0 {
			arrived = append(arrived, d)
		} else {
			kept = append(kept, d)
		}
	}
	r.mesh = kept
	sort.SliceStable(arrived, func(a, b int) bool { return arrived[a].to < arrived[b].to })
	r.events += uint64(len(arrived))
	for _, d := range arrived {
		r.cells[d.to].pops++
		r.tryFire(d.to)
	}

	executing := 0
	for i := range r.cells {
		n := &r.cells[i]
		switch n.phase {
		case refExecuting:
			executing++
			if n.execLeft--; n.execLeft <= 0 {
				r.events++
				r.finishExecution(i)
			}
		case refService:
			if n.serviceLeft--; n.serviceLeft <= 0 {
				r.events++
				r.fire(i)
			}
		}
	}
	return executing
}
