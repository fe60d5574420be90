package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
)

// DefaultMaxMeshCycles bounds one method execution; methods that exceed it
// are reported as timed out and filtered from results, as the dissertation
// filtered endless-loop cases (Section 7.3, Simulation Structure).
const DefaultMaxMeshCycles = 2_000_000

// preemptEvery is how often (in mesh cycles) a preemptible engine polls its
// context. A power of two so the check is a mask, not a division; at ~4096
// cycles the poll adds one atomic load per few hundred thousand token moves,
// while a cancelled 2M-cycle method aborts within a fraction of a percent of
// its full budget instead of running to completion. A cycle jump that
// crosses a preemptEvery boundary polls too, so skipping idle cycles never
// delays cancellation.
const preemptEvery = 4096

// tokenKind identifies a member of the token bundle (Figure 23).
type tokenKind uint8

const (
	tokHead tokenKind = iota
	tokMemory
	tokRegister
	tokTail
	// tokWake is not a token: a serial-queue entry of this kind only makes
	// the loop visit a clock (see Engine.parkTail).
	tokWake
	numKinds // sizes the per-kind counters
)

func (k tokenKind) String() string {
	switch k {
	case tokHead:
		return "HEAD"
	case tokMemory:
		return "MEMORY"
	case tokRegister:
		return "REGISTER"
	case tokTail:
		return "TAIL"
	default:
		return "WAKE"
	}
}

// token is one serial-bundle element in flight or held at a node.
type token struct {
	kind tokenKind
	reg  int // register number for tokRegister
}

// serialMsg is a token travelling the ordered network. It walks the linear
// order from `from` and is delivered at `to`, the first node past `from`
// that observes it; the nodes in between see it only virtually
// (engine_event.go, "Express delivery"). Branch-addressed and one-hop sends
// have from == to-1. An entry with from == to is zero-hop and carries no
// token: a wake (tokWake) or a HEAD notice (tokHead, Engine.checkFire).
type serialMsg struct {
	tok  token
	to   int // destination instruction index
	from int
	ord  int // same-clock, same-node, same-kind processing order
}

// meshMsg is a producer→consumer operand transfer.
type meshMsg struct {
	to int // consumer instruction index
}

// completion is a scheduled execution/service phase end; gen invalidates
// completions of nodes reset by a backward bundle transport before their
// phase finished.
type completion struct {
	node int
	gen  uint32
}

// nodeMeta caches the per-instruction properties the token rules consult
// on every arrival — group, branch target, local register, stack effects,
// classification flags — decoded once at engine construction so the hot
// loop never re-copies a full bytecode.Instruction or re-runs its table
// lookups.
type nodeMeta struct {
	target   int32 // branch target (bytecode.NoTarget when none)
	localReg int32 // local register accessed, -1 when not a local op
	pop      int32
	push     int32
	group    bytecode.Group
	flags    uint8
}

const (
	metaControl        uint8 = 1 << iota // buffers the bundle until it fires
	metaOrderedStorage                   // participates in MEMORY_TOKEN ordering
	metaBranch                           // may transfer control to target
	metaReturn                           // ends the method
	metaAlwaysTaken                      // unconditional goto
	metaFoldKind                         // group the folding enhancement eliminates
)

// methodMeta is what the engine precomputes per method: the node table and
// whether any node ever consults the branch policy. Predictor.Forward is
// called only for a conditional forward branch (checkFire); back jumps
// follow the 9-in-10 pattern under both policies, so a method without one
// simulates identically under BP1 and BP2.
type methodMeta struct {
	nodes           []nodeMeta
	policyInvariant bool
}

// metaCache memoizes decodeMeta per method: the table is an immutable pure
// function of the code, engines only read it, and one deployment backs
// many runs (two branch policies per MethodRun, repeated sweeps through
// the deployment cache). Crudely bounded: past metaCacheMax entries the
// cache resets rather than tracking recency — rebuilds are cheap.
var (
	metaCache    sync.Map // *classfile.Method -> *methodMeta
	metaCacheLen atomic.Int64
)

const metaCacheMax = 8192

func metaFor(m *classfile.Method) *methodMeta {
	if v, ok := metaCache.Load(m); ok {
		return v.(*methodMeta)
	}
	mm := &methodMeta{nodes: decodeMeta(m.Code), policyInvariant: true}
	for i := range mm.nodes {
		mt := &mm.nodes[i]
		// checkFire's own test for asking the predictor a forward question.
		if mt.group == bytecode.GroupControl && mt.flags&metaAlwaysTaken == 0 && int(mt.target) > i {
			mm.policyInvariant = false
			break
		}
	}
	if metaCacheLen.Load() >= metaCacheMax {
		metaCache.Clear()
		metaCacheLen.Store(0)
	}
	if _, loaded := metaCache.LoadOrStore(m, mm); !loaded {
		metaCacheLen.Add(1)
	}
	return mm
}

func decodeMeta(code []bytecode.Instruction) []nodeMeta {
	meta := make([]nodeMeta, len(code))
	for i := range code {
		in := &code[i]
		m := nodeMeta{
			target:   in.Target,
			localReg: -1,
			pop:      int32(in.Pop),
			push:     int32(in.Push),
			group:    in.Group(),
		}
		if reg, ok := in.LocalIndex(); ok {
			m.localReg = int32(reg)
		}
		switch m.group {
		case bytecode.GroupControl, bytecode.GroupReturn:
			m.flags |= metaControl
		case bytecode.GroupMemRead, bytecode.GroupMemWrite:
			m.flags |= metaOrderedStorage
		case bytecode.GroupLocalRead, bytecode.GroupMove:
			m.flags |= metaFoldKind
		}
		if in.IsBranch() {
			m.flags |= metaBranch
		}
		if in.IsReturn() {
			m.flags |= metaReturn
		}
		if in.Op == bytecode.Goto || in.Op == bytecode.GotoW {
			m.flags |= metaAlwaysTaken
		}
		meta[i] = m
	}
	return meta
}

// observes reports whether a node can do anything with a MEMORY or
// REGISTER token other than pass it one hop on — the test their express
// delivery rests on (tokenArrives is the rule set it summarises): a control
// or return node buffers or routes whatever reaches it, MEMORY matters to
// ordered-storage nodes and REGISTER r to the nodes accessing local r.
// HEAD and TAIL stop where the run's state says they can act
// (Engine.headStop, Engine.tailStop).
func (mt *nodeMeta) observes(tok token) bool {
	switch {
	case mt.flags&metaControl != 0:
		return true
	case tok.kind == tokMemory:
		return mt.flags&metaOrderedStorage != 0
	}
	return int(mt.localReg) == tok.reg
}

// nodePhase tracks an Instruction Data Unit's execution lifecycle.
type nodePhase uint8

const (
	phaseReady nodePhase = iota
	phaseExecuting
	phaseService // storage read or GPP service outstanding
	phaseFired
)

// nodeState is the per-instruction Instruction Data Unit state (Figure 13).
type nodeState struct {
	phase nodePhase
	// headAt is the serial clock at which HEAD reached this node, or will
	// reach it virtually when an express HEAD passes it by (0: not yet
	// sent past it); HEAD has been seen once serialNow >= headAt.
	// headNotice records that a zero-hop HEAD notice is queued for headAt.
	headAt       int
	headNotice   bool
	popsReceived int
	memSeen      bool
	regSeen      bool // matching REGISTER_TOKEN held (local read/inc)
	held         []token
	// gen counts resets of this node (backward bundle transports);
	// scheduled completions carry it so a reset mid-phase orphans the
	// stale completion instead of firing a reset node.
	gen uint32
	// decision caches the control-flow outcome chosen at fire time.
	decisionTaken bool
	firedOnce     bool // coverage accounting across loop iterations
}

// Result reports one simulated method execution.
type Result struct {
	Config     string
	Signature  string
	Policy     BranchPolicy
	Fired      int // dynamic instructions executed
	Distinct   int // distinct static sites fired (coverage numerator)
	Static     int
	MeshCycles int
	// ParallelCycles counts mesh cycles with >= 2 nodes in their
	// execution phase (service time excluded, as in Table 26).
	ParallelCycles int
	// BusyCycles counts mesh cycles with >= 1 node executing.
	BusyCycles int
	MaxNode    int
	TimedOut   bool
}

// IPC is instructions per mesh cycle.
func (r Result) IPC() float64 {
	if r.MeshCycles == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.MeshCycles)
}

// Coverage is the fraction of static instructions that fired (Table 18).
func (r Result) Coverage() float64 {
	if r.Static == 0 {
		return 0
	}
	return float64(r.Distinct) / float64(r.Static)
}

// Parallelism is the fraction of mesh cycles with two or more instructions
// executing (Table 26).
func (r Result) Parallelism() float64 {
	if r.MeshCycles == 0 {
		return 0
	}
	return float64(r.ParallelCycles) / float64(r.MeshCycles)
}

// Engine simulates one method execution on one configuration.
//
// Run drives the token rules below with an event-driven loop
// (engine_event.go): arrival-bucketed queues, express token delivery past
// nodes where the token cannot act, an incremental rearmost-TAIL watermark,
// counter-based phase tracking and cycle skipping. The Section 6.3 rules
// as stated — clock by clock, hop by hop — live in a test-side
// transcription (refEngine, reference_test.go) that shares no code with
// this one; the differential tests require byte-identical Results and the
// same simulated counters from both. An Engine executes once per Reset;
// Reset reuses the previous run's buffers (node array, held-token buffers,
// queue buckets, distance tables, predictor maps), so a recycled engine's
// state stops allocating once it has seen its largest deployment. Reuse is
// unobservable: a Reset engine is byte-identical to a fresh one whatever
// the previous run left behind (TestDirtyEngineReuse).
type Engine struct {
	cfg        Config
	placement  *fabric.Placement
	resolution *fabric.Resolution
	predictor  *Predictor

	nodes []nodeState
	meta  []nodeMeta

	maxCycles int
	fired     int
	finished  bool

	// Quiesce models the QUIESE_TOKEN / RESETADDRESS_TOKEN flow
	// (Section 6.2 "Management and Cleanup", Section 6.4): at
	// quiesceAt the GPP halts the fabric for quiesceFor mesh cycles
	// (e.g. a garbage collection re-deriving heap pointers), after which
	// execution resumes with all in-fabric state intact.
	quiesceAt  int
	quiesceFor int

	// preemptCtx, when non-nil, is polled every preemptEvery mesh cycles
	// so a long-running execution aborts mid-run on cancellation instead
	// of only between jobs.
	preemptCtx context.Context

	// foldTransfers enables the Section 6.4 folding enhancement upper
	// bound: pure data-transfer nodes (register reads and stack moves)
	// "declare themselves void" — they fire in zero execution cycles and
	// are not counted as executed instructions, modelling their
	// elimination after the linkage process.
	foldTransfers bool

	// ---- loop state (engine_event.go) ----

	// serialNow / meshNow are the absolute serial clock and active mesh
	// cycle counts; every queued arrival and completion is keyed on them.
	// meshTick counts completed mesh decrement passes: it runs one ahead
	// of meshNow during a cycle's mesh phase, because the model decrements
	// a message pushed in the serial phase on that same cycle's mesh clock
	// (arrival c+d-1) but a message pushed during the mesh clock only from
	// the next cycle (arrival c+d).
	serialNow int
	meshNow   int
	meshTick  int
	serialEv  timeQ[serialMsg]
	meshEv    timeQ[meshMsg]
	doneEv    timeQ[completion]
	// The rearmost-TAIL watermark. There is exactly one TAIL in the
	// machine: tailHeldAt is the node buffering it (-1 while in flight)
	// and tailPos its position (destination while in flight, holder
	// while parked). liveAt[p] counts every other live token at
	// position p — in-flight serial messages by destination plus held
	// tokens by node — and liveBehind is the running sum of
	// liveAt[0..tailPos], updated in O(1) per token move and O(span)
	// when the TAIL itself moves, so "the TAIL is rearmost" is
	// liveBehind==0 rather than a scan of every queue and buffer.
	tailHeldAt int
	tailPos    int
	liveAt     []int32
	liveBehind int
	// tailHold is the serial clock until which the parked TAIL is also
	// blocked by express messages virtually behind it (parkTail).
	tailHold int
	// arrival is the serial message whose delivery is being processed, nil
	// outside deliverSerialBucket; seq numbers every other push (nextOrd).
	arrival *serialMsg
	seq     int
	// onBackward, when set (tests only), sees every backward bundle
	// transport just before node i's bundle moves.
	onBackward func(i int)
	// executingCount/serviceCount are the nodes in each phase, for busy
	// accounting and in-flight detection without a node sweep.
	executingCount int
	serviceCount   int
	// dequeued counts serial entries taken per token kind (EngineStats.Serial).
	dequeued [numKinds]uint64
	// Precomputed per-placement distances: nextD[i] is the serial hop to
	// i+1 and pre[i] the hops' running sum from node 0 (the linear serial
	// distance i→j is pre[j]-pre[i]), branchD[i] the serial distance to
	// i's branch target, and meshD[TargetStart(i)+k] the mesh distance to
	// TargetsOf(i)[k].Consumer — the inner loop never calls through
	// fabric.Fabric per message.
	nextD   []int32
	pre     []int32
	branchD []int32
	meshD   []int32

	stats EngineStats
}

// NewEngine prepares an execution. The placement must come from the same
// fabric as cfg.
func NewEngine(cfg Config, res *fabric.Resolution, policy BranchPolicy) *Engine {
	e := new(Engine)
	e.Reset(cfg, res, policy)
	return e
}

// Reset prepares e for a new execution, whatever state the previous one
// left behind (finished, timed out, stalled or cancelled mid-run). Every
// field not listed below returns to its zero value — options set through
// SetMaxCycles, ScheduleQuiesce, EnableFolding and SetPreempt included —
// while the listed buffers keep their capacity.
func (e *Engine) Reset(cfg Config, res *fabric.Resolution, policy BranchPolicy) {
	if e.predictor == nil {
		e.predictor = NewPredictor(policy)
	} else {
		e.predictor.policy = policy
		clear(e.predictor.fwd)
		clear(e.predictor.back)
	}
	e.serialEv.reset()
	e.meshEv.reset()
	e.doneEv.reset()
	// The distance tables survive a job's second policy. The engine still
	// references the deployment they were built for (releaseEngine clears
	// it), so pointer equality cannot be fooled by a recycled address.
	sameDeployment := e.resolution == res && e.cfg.Fabric == cfg.Fabric
	n := len(res.Placement.Method.Code)
	*e = Engine{
		cfg:        cfg,
		placement:  res.Placement,
		resolution: res,
		predictor:  e.predictor,
		nodes:      resized(e.nodes, n),
		meta:       metaFor(res.Placement.Method).nodes,
		maxCycles:  DefaultMaxMeshCycles,
		serialEv:   e.serialEv,
		meshEv:     e.meshEv,
		doneEv:     e.doneEv,
		tailHeldAt: -1,
		tailPos:    -1,
		liveAt:     resized(e.liveAt, n),
		nextD:      e.nextD,
		pre:        e.pre,
		branchD:    e.branchD,
		meshD:      e.meshD,
	}
	clear(e.liveAt)
	for i := range e.nodes {
		e.nodes[i] = nodeState{held: e.nodes[i].held[:0]}
	}
	if !sameDeployment {
		e.buildDist()
	}
}

// resized returns s with length n, keeping its backing array — and so its
// elements' own buffers — whenever capacity allows.
func resized[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// SetMaxCycles overrides the timeout bound.
func (e *Engine) SetMaxCycles(n int) { e.maxCycles = n }

// ScheduleQuiesce arranges a fabric-wide stall of the given duration
// starting at the given mesh cycle — the QUIESE_TOKEN mechanism a garbage
// collection would use before RESETADDRESS_TOKEN re-derives memory
// pointers. Execution state is preserved across the stall.
func (e *Engine) ScheduleQuiesce(atCycle, duration int) {
	e.quiesceAt = atCycle
	e.quiesceFor = duration
}

// EnableFolding turns on the Section 6.4 folding-enhancement model.
func (e *Engine) EnableFolding() { e.foldTransfers = true }

// SetPreempt arranges for Run to poll ctx at least every preemptEvery mesh
// cycles and return ctx.Err() mid-execution once it is cancelled. A nil ctx
// (the default) disables the check entirely.
func (e *Engine) SetPreempt(ctx context.Context) { e.preemptCtx = ctx }

// foldable reports whether instruction i is a pure data transfer the
// folding enhancement eliminates.
func (e *Engine) foldable(i int) bool {
	return e.foldTransfers && e.meta[i].flags&metaFoldKind != 0
}

// ---- queue and bookkeeping primitives ----

// pushSerial schedules tok for node `to`, delay+stagger serial clocks out.
// from is the node whose linear successors the message walks on its way
// (to-1 when it is addressed straight to `to`); stagger is its position in
// a bundle released one clock apart.
func (e *Engine) pushSerial(t token, from, to, delay, stagger int) {
	e.serialEv.push(e.serialNow+delay+stagger, serialMsg{tok: t, to: to, from: from, ord: e.nextOrd(t, stagger)})
	if t.kind == tokTail {
		e.moveTail(to)
	} else {
		e.liveAt[to]++
		if to <= e.tailPos {
			e.liveBehind++
		}
	}
}

// moveTail relocates the watermark to position p: forward moves fold the
// crossed span into liveBehind; a backward transport re-sums the prefix.
func (e *Engine) moveTail(p int) {
	if p >= e.tailPos {
		for k := e.tailPos + 1; k <= p; k++ {
			e.liveBehind += int(e.liveAt[k])
		}
	} else {
		s := 0
		for k := 0; k <= p; k++ {
			s += int(e.liveAt[k])
		}
		e.liveBehind = s
	}
	e.tailPos = p
}

// pushMesh schedules an operand delivery `delay` mesh cycles out.
func (e *Engine) pushMesh(to, delay int) {
	e.meshEv.push(e.meshTick+delay-1, meshMsg{to: to})
}

// holdToken buffers tok at node i.
func (e *Engine) holdToken(i int, t token) {
	e.nodes[i].held = append(e.nodes[i].held, t)
	if t.kind == tokTail {
		e.parkTail(i) // tailPos is already i (its delivery target)
	} else {
		e.liveAt[i]++
		if i <= e.tailPos {
			e.liveBehind++
		}
	}
}

// noteUnheld records that tok left node i's buffer.
func (e *Engine) noteUnheld(i int, t token) {
	if t.kind == tokTail {
		e.tailHeldAt = -1 // position unchanged until the re-push
	} else {
		e.liveAt[i]--
		if i <= e.tailPos {
			e.liveBehind--
		}
	}
}

// setPhase transitions node i, keeping the phase counters.
func (e *Engine) setPhase(i int, p nodePhase) {
	n := &e.nodes[i]
	if n.phase == p {
		return
	}
	switch n.phase {
	case phaseExecuting:
		e.executingCount--
	case phaseService:
		e.serviceCount--
	}
	switch p {
	case phaseExecuting:
		e.executingCount++
	case phaseService:
		e.serviceCount++
	}
	n.phase = p
}

// scheduleDone registers node i's current phase to complete at the given
// absolute mesh cycle.
func (e *Engine) scheduleDone(i, at int) {
	e.doneEv.push(at, completion{node: i, gen: e.nodes[i].gen})
}

// injectBundle enqueues the initial token bundle at instruction 0,
// staggered one serial clock apart: HEAD, MEMORY, one REGISTER per local,
// TAIL (Figure 23).
func (e *Engine) injectBundle() {
	stagger := 0
	inject := func(t token) {
		e.pushSerial(t, -1, 0, 1, stagger)
		stagger++
	}
	inject(token{kind: tokHead})
	inject(token{kind: tokMemory})
	for r := 0; r < e.placement.Method.MaxLocals; r++ {
		inject(token{kind: tokRegister, reg: r})
	}
	inject(token{kind: tokTail})
}

func (e *Engine) fillCoverage(res *Result) {
	for i := range e.nodes {
		if e.nodes[i].firedOnce {
			res.Distinct++
		}
	}
}

// tokenArrives applies the Section 6.3 per-group token rules at node i.
// The loop calls it only where the token's express scan in forwardToken
// stops: a rule that makes a node look at a token it used to pass on
// belongs in both.
func (e *Engine) tokenArrives(tok token, i int) {
	n := &e.nodes[i]
	mt := &e.meta[i]

	// TAIL always parks; the rearmost sweep moves it on.
	if tok.kind == tokTail {
		e.holdToken(i, tok)
		e.checkFire(i)
		return
	}

	// Control-flow nodes buffer every token until they fire; after a
	// backward-taken decision they keep buffering until TAIL. Tokens
	// trailing in after a forward/fall-through decision are routed
	// directly along the decided path.
	if mt.flags&metaControl != 0 {
		isBranch, target := mt.flags&metaBranch != 0, int(mt.target)
		if n.phase == phaseFired && (!isBranch || !n.decisionTaken || target > i) {
			switch {
			case isBranch && n.decisionTaken && target > i:
				e.forwardTokenTo(tok, i, target, 0)
			default:
				e.forwardToken(tok, i, 0)
			}
			return
		}
		if tok.kind == tokHead {
			n.headAt = e.serialNow
		}
		e.holdToken(i, tok)
		e.checkFire(i)
		return
	}

	switch tok.kind {
	case tokHead:
		n.headAt = e.serialNow
		e.forwardToken(tok, i, 0)
		e.checkFire(i)

	case tokMemory:
		if mt.flags&metaOrderedStorage != 0 && n.phase == phaseReady {
			n.memSeen = true
			e.holdToken(i, tok)
			e.checkFire(i)
			return
		}
		e.forwardToken(tok, i, 0)

	case tokRegister:
		if int(mt.localReg) == tok.reg {
			switch mt.group {
			case bytecode.GroupLocalRead, bytecode.GroupLocalInc:
				if n.phase == phaseReady {
					n.regSeen = true
					e.holdToken(i, tok)
					e.checkFire(i)
					return
				}
				// Re-execution after a loop reset re-arms below; a
				// token reaching a fired node passes through.
				e.forwardToken(tok, i, 0)
			case bytecode.GroupLocalWrite:
				// The write kills the incoming value; its own fire
				// emits the replacement token.
				return
			default:
				e.forwardToken(tok, i, 0)
			}
			return
		}
		e.forwardToken(tok, i, 0)

	}
}

// tailIsRearmost reports whether no other live token is behind or at the
// parked TAIL — the global "TAIL_TOKEN may never pass any other token"
// invariant — from the incrementally maintained watermark: liveBehind is
// exactly the count of non-TAIL tokens held at or delivered to nodes <=
// tailPos, and tailHold covers the express messages delivered beyond it
// that have not virtually left it yet.
func (e *Engine) tailIsRearmost() bool {
	return e.liveBehind == 0 && e.serialNow >= e.tailHold
}

// releasePendingTails advances a parked TAIL_TOKEN when its node has fired
// and the token is globally rearmost. Backward-taken jumps instead trigger
// the bundle transport. There is exactly one TAIL in the machine, so only
// its tracked holder is checked.
func (e *Engine) releasePendingTails() {
	if i := e.tailHeldAt; i >= 0 {
		e.tryReleaseTail(i)
	}
}

// tryReleaseTail applies the tail-release rules at node i.
func (e *Engine) tryReleaseTail(i int) {
	n := &e.nodes[i]
	if n.phase != phaseFired || !e.holdsTail(i) {
		return
	}
	mt := &e.meta[i]
	controlBranch := mt.flags&metaControl != 0 && mt.flags&metaBranch != 0
	if controlBranch && n.decisionTaken && int(mt.target) <= i {
		e.maybeCompleteBackward(i)
		return
	}
	if mt.flags&metaReturn != 0 {
		return // consumed by the return
	}
	if !e.tailIsRearmost() {
		return
	}
	e.removeTail(i)
	if controlBranch && n.decisionTaken && int(mt.target) > i {
		e.forwardTokenTo(token{kind: tokTail}, i, int(mt.target), 0)
	} else {
		e.forwardToken(token{kind: tokTail}, i, 0)
	}
}

// removeTail drops the parked TAIL from node i's buffer.
func (e *Engine) removeTail(i int) {
	n := &e.nodes[i]
	for k, t := range n.held {
		if t.kind == tokTail {
			n.held = append(n.held[:k], n.held[k+1:]...)
			e.noteUnheld(i, t)
			return
		}
	}
}

// forwardToken sends tok from node i down the linear order, `stagger`
// clocks behind the head of its bundle. The model moves it one serial hop
// per physical node; it is delivered at the first node past i where it can
// act (observes, headStop, tailStop), or at the last node (where an
// unobserved token falls off the method end), after the same total delay.
// A HEAD stamps every node it skips with the clock it virtually passes it.
func (e *Engine) forwardToken(tok token, i, stagger int) {
	to := i + 1
	last := len(e.nodes) - 1
	if to > last {
		return // fell off the method end (only returns should consume TAIL)
	}
	switch tok.kind {
	case tokHead:
		at := e.serialNow + stagger - int(e.pre[i])
		for ; to < last && !e.headStop(to); to++ {
			e.nodes[to].headAt = at + int(e.pre[to])
		}
	case tokTail:
		to = e.tailStop(i)
	default:
		for to < last && !e.meta[to].observes(tok) {
			to++
		}
	}
	e.pushSerial(tok, i, to, int(e.pre[to]-e.pre[i]), stagger)
}

// headStop reports whether a HEAD passing node k must be delivered there
// (rule 4 in engine_event.go's header): k buffers or routes it, or HEAD is
// all k still waits for to fire.
func (e *Engine) headStop(k int) bool {
	return e.meta[k].flags&metaControl != 0 ||
		(e.nodes[k].phase == phaseReady && e.readyButHead(k))
}

// tailStop is where a TAIL released at node i is delivered (rule 5 in
// engine_event.go's header): the first node past i that is a control or
// return node, had not fired at release time, or is the last node — or,
// sooner, the node where hop by hop it would catch up with an in-flight
// message lagging it: m.from+1 for any m whose clock at every node it
// shares with the TAIL is later than the TAIL's.
func (e *Engine) tailStop(i int) int {
	stop := len(e.nodes) - 1
	lag := e.serialNow - int(e.pre[i])
	for _, b := range e.serialEv.pending() {
		for k := range b.items {
			m := &b.items[k]
			if m.from < m.to && m.to > i && b.t-int(e.pre[m.to]) > lag {
				stop = min(stop, max(m.from, i)+1)
			}
		}
	}
	for to := i + 1; to < stop; to++ {
		if e.meta[to].flags&metaControl != 0 || e.nodes[to].phase != phaseFired {
			return to
		}
	}
	return stop
}

// forwardTokenTo schedules tok from the branch at `from` to its target
// `to` (taken branches); intervening nodes ignore explicitly addressed
// messages.
func (e *Engine) forwardTokenTo(tok token, from, to, stagger int) {
	if to >= len(e.nodes) {
		return // a branch to the method end drops what it routes
	}
	e.pushSerial(tok, to-1, to, int(e.branchD[from]), stagger)
}

// meshDeliver processes an operand arrival.
func (e *Engine) meshDeliver(msg meshMsg) {
	n := &e.nodes[msg.to]
	n.popsReceived++
	e.checkFire(msg.to)
}

// readyButHead reports whether node i meets every firing condition of its
// group except HEAD's.
func (e *Engine) readyButHead(i int) bool {
	n := &e.nodes[i]
	mt := &e.meta[i]
	switch mt.group {
	case bytecode.GroupLocalRead, bytecode.GroupLocalInc:
		return n.regSeen
	case bytecode.GroupMemRead, bytecode.GroupMemWrite:
		return n.memSeen && n.popsReceived >= int(mt.pop)
	case bytecode.GroupReturn:
		return n.popsReceived >= int(mt.pop) && e.holdsTail(i)
	}
	return n.popsReceived >= int(mt.pop)
}

// checkFire applies the firing rules and begins execution when satisfied.
// A node that is ready but for a HEAD still virtually on its way queues a
// zero-hop HEAD notice at the clock HEAD reaches it, sorted as that
// arrival would be (rule 4 in engine_event.go's header).
func (e *Engine) checkFire(i int) {
	n := &e.nodes[i]
	if n.phase != phaseReady || !e.readyButHead(i) {
		return
	}
	if n.headAt == 0 || n.headAt > e.serialNow {
		if n.headAt != 0 && !n.headNotice {
			n.headNotice = true
			e.serialEv.push(n.headAt, serialMsg{tok: token{kind: tokHead}, to: i, from: i})
		}
		return
	}
	mt := &e.meta[i]

	if mt.group == bytecode.GroupControl {
		// Decide direction now; a backward-taken jump additionally
		// needs TAIL before the bundle moves (handled at completion).
		taken := false
		switch {
		case mt.flags&metaAlwaysTaken != 0:
			taken = true
		case int(mt.target) > i:
			taken = e.predictor.Forward(i)
		default:
			taken = e.predictor.Backward(i)
		}
		n.decisionTaken = taken
	}

	e.setPhase(i, phaseExecuting)
	if e.foldable(i) {
		// Folded transfers are free: complete immediately without
		// occupying an execution cycle.
		e.completeExecution(i)
		return
	}
	exec := ExecCycles(mt.group)
	if mt.group == bytecode.GroupCall || mt.group == bytecode.GroupSpecial {
		// invoke round trip through the GPP, or a delegated service
		exec += GPPServiceCycles
	}
	// A node armed during cycle c is first decremented during c's mesh
	// clock, so an execution of L cycles completes at cycle c+L-1.
	e.scheduleDone(i, e.meshNow+exec-1)
}

// holdsTail reports whether node i currently buffers the TAIL_TOKEN.
func (e *Engine) holdsTail(i int) bool {
	for _, t := range e.nodes[i].held {
		if t.kind == tokTail {
			return true
		}
	}
	return false
}

// completeExecution finishes the execution phase: storage reads transition
// to their service wait; everything else fires.
func (e *Engine) completeExecution(i int) {
	group := e.meta[i].group
	if group == bytecode.GroupMemRead {
		// "the node must remain in the 'waitingForService' state until
		// the memory system returns the result." First decremented on the
		// next mesh clock: completes MemoryServiceCycles cycles after the
		// transition.
		e.setPhase(i, phaseService)
		e.scheduleDone(i, e.meshNow+MemoryServiceCycles)
		// The MEMORY_TOKEN (order number assigned) moves on immediately.
		e.releaseMemoryToken(i)
		return
	}
	if group == bytecode.GroupMemWrite {
		// Writes post: the service message is sent and processing
		// continues.
		e.releaseMemoryToken(i)
	}
	e.fireNode(i)
}

// completeService fires a storage read once memory responds.
func (e *Engine) completeService(i int) {
	e.fireNode(i)
}

// releaseMemoryToken forwards a held MEMORY_TOKEN down the network.
func (e *Engine) releaseMemoryToken(i int) {
	n := &e.nodes[i]
	for k, t := range n.held {
		if t.kind == tokMemory {
			n.held = append(n.held[:k], n.held[k+1:]...)
			e.noteUnheld(i, t)
			e.forwardToken(t, i, 0)
			return
		}
	}
}

// fireNode marks instruction i fired, emits its operand transfers, and
// releases buffered tokens according to its group.
func (e *Engine) fireNode(i int) {
	n := &e.nodes[i]
	mt := &e.meta[i]
	e.setPhase(i, phaseFired)
	n.firedOnce = true
	if !e.foldable(i) {
		e.fired++
	}

	// Operand emission to every resolved consumer.
	if mt.push > 0 {
		off := e.resolution.TargetStart(i)
		for k, tg := range e.resolution.TargetsOf(i) {
			e.pushMesh(int(tg.Consumer), int(e.meshD[off+k]))
		}
	}

	switch mt.group {
	case bytecode.GroupReturn:
		e.finished = true
		return

	case bytecode.GroupLocalRead, bytecode.GroupLocalInc:
		// Forward the held REGISTER_TOKEN (reads preserve it; the
		// increment re-emits the updated value). A parked TAIL stays
		// for the rearmost sweep.
		e.releaseHeld(i)
		return

	case bytecode.GroupLocalWrite:
		// Emit the replacement REGISTER_TOKEN.
		e.forwardToken(token{kind: tokRegister, reg: int(mt.localReg)}, i, 0)
		e.releaseHeld(i)
		return

	case bytecode.GroupControl:
		e.completeControl(i)
		return

	default:
		e.releaseHeld(i)
	}
}

// linear is releaseHeldTo's target for "down the linear order".
const linear = -1

// releaseHeld forwards all buffered tokens down the linear order (dropping
// them off the method end).
func (e *Engine) releaseHeld(i int) { e.releaseHeldTo(i, linear) }

// releaseHeldTo sends node i's buffered tokens on in kind order, one serial
// clock apart — addressed to `target`, or down the linear order; a parked
// TAIL stays behind for the rearmost sweep. The buffer is filtered in
// place.
func (e *Engine) releaseHeldTo(i, target int) {
	n := &e.nodes[i]
	sortTokensByKind(n.held)
	kept := n.held[:0]
	stagger := 0
	for _, t := range n.held {
		if t.kind == tokTail {
			kept = append(kept, t)
			continue
		}
		e.noteUnheld(i, t)
		if target == linear {
			e.forwardToken(t, i, stagger)
		} else {
			e.forwardTokenTo(t, i, target, stagger)
		}
		stagger++
	}
	n.held = kept
}

// completeControl routes the buffered bundle after a control node fires.
func (e *Engine) completeControl(i int) {
	n := &e.nodes[i]
	mt := &e.meta[i]
	target := int(mt.target)

	switch {
	case mt.flags&metaBranch == 0 || !n.decisionTaken:
		// Calls and not-taken jumps fall through.
		e.releaseHeld(i)
	case target > i:
		// Forward taken: explicit addressing to the target; a parked
		// TAIL follows via the sweep.
		e.releaseHeldTo(i, target)
	default:
		// Backward taken: keep buffering until TAIL arrives, then move
		// the whole bundle up the reverse network.
		e.maybeCompleteBackward(i)
	}
}

// maybeCompleteBackward transports the bundle up the reverse network once a
// fired backward-taken jump holds the TAIL_TOKEN, resetting every
// instruction in the loop span to the ready state (Section 6.3: "each
// instruction from the same thread/class/method must also reset").
func (e *Engine) maybeCompleteBackward(i int) {
	n := &e.nodes[i]
	mt := &e.meta[i]
	if n.phase != phaseFired || !n.decisionTaken {
		return
	}
	if mt.flags&metaBranch == 0 || int(mt.target) > i {
		return
	}
	if !e.holdsTail(i) {
		return
	}
	// The transport may only move a complete bundle: nothing still in
	// flight toward the jump and nothing buffered behind it. The TAIL is
	// held here (checked above), so tailPos == i and liveBehind counts
	// non-TAIL tokens in flight to <= i or held at <= i. The bundle
	// buffered at i itself is expected; anything beyond it blocks the
	// transport.
	if e.liveBehind != len(n.held)-1 {
		return
	}
	if e.onBackward != nil {
		e.onBackward(i)
	}
	target := int(mt.target)
	// The bundle keeps living in the buffer's backing array: nothing holds
	// a token at i before the re-injection below has read it.
	bundle := n.held
	n.held = n.held[:0]
	for _, t := range bundle {
		e.noteUnheld(i, t)
	}

	// Reset the loop span (including this jump, which will re-execute).
	for k := target; k <= i; k++ {
		nk := &e.nodes[k]
		switch nk.phase {
		case phaseExecuting:
			e.executingCount--
		case phaseService:
			e.serviceCount--
		}
		// gen advances so completions scheduled for the old incarnation
		// are orphaned; held is preserved (always empty below the jump —
		// the transport gate above requires it).
		e.nodes[k] = nodeState{firedOnce: nk.firedOnce, held: nk.held, gen: nk.gen + 1}
	}

	// Re-inject the bundle at the loop head, one serial clock apart, after
	// the reverse transit.
	dist := int(e.branchD[i])
	sortTokensByKind(bundle)
	stagger := 0
	for _, t := range bundle {
		e.pushSerial(t, target-1, target, dist, stagger)
		stagger++
	}
}
