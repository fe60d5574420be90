package fabric

import (
	"fmt"
	"slices"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// Target is one resolved consumer address held by a producer node: the mesh
// destination and operand side its fired data is routed to (Section 6.2,
// "DataFlow Address Resolution"). These arrays are built by the fabric
// itself — "unlike other machines, these 'Push' addresses are generated
// automatically and not part of the instruction set stored in the General
// Purpose Processor's memory."
type Target struct {
	Consumer int32 // linear address of the consuming instruction
	Side     int32 // 1-based operand side at the consumer
}

// Resolution is the outcome of the two-pass serial-network protocol:
// CMD_SEND_ADDRESSES_DOWN followed by CMD_SEND_NEEDS_UP. It keeps only
// what execution reads; the sources pass 1 leaves behind are the
// resolver's scratch (AddressesDown rebuilds them).
type Resolution struct {
	Placement *Placement

	// targets holds every instruction's resolved consumers back to back;
	// instruction i's are targets[targetOff[i]:targetOff[i+1]], ordered
	// by consumer, then side. Read them through TargetsOf.
	targetOff []int32
	targets   []Target

	// QUp[i] counts need-messages buffered at or forwarded through
	// instruction i during the needs-up pass; MaxQUp is the per-method
	// buffering requirement (Table 11).
	QUp    []int32
	MaxQUp int

	// Cycles is the serial-cycle cost of the whole resolution: a full
	// traversal for each pass plus one explicit message per branch source
	// (Table 7 reports ≈2× the instruction count).
	Cycles int

	// Merges counts consumer sides fed by multiple producers (DataFlow
	// merges); BackMerges counts impossible backward flows and must be 0.
	Merges     int
	BackMerges int
}

// TargetsOf returns the resolved consumers of instruction i's pushes, by
// consumer then side. The slice is capped at its own length and shared by
// every reader of the resolution: it must not be modified.
func (r *Resolution) TargetsOf(i int) []Target {
	lo, hi := r.targetOff[i], r.targetOff[i+1]
	return r.targets[lo:hi:hi]
}

// TargetStart returns the position of instruction i's first target among
// all NumTargets of the method, so a table with one entry per target can
// be indexed TargetStart(i)+k for TargetsOf(i)[k].
func (r *Resolution) TargetStart(i int) int { return int(r.targetOff[i]) }

// NumTargets returns the method's resolved producer→consumer arcs.
func (r *Resolution) NumTargets() int { return len(r.targets) }

// NewResolution rebuilds a resolution of p from per-instruction target
// lists, the form a stored deployment record holds; the caller fills in
// the counts. It keeps the lists' order.
func NewResolution(p *Placement, targets [][]Target) *Resolution {
	r := &Resolution{Placement: p, targetOff: make([]int32, len(targets)+1), targets: slices.Concat(targets...)}
	for i, tgts := range targets {
		r.targetOff[i+1] = r.targetOff[i] + int32(len(tgts))
	}
	return r
}

// Sources is the outcome of pass 1, CMD_SEND_ADDRESSES_DOWN: every
// instruction's control-flow predecessors (the sourceLinearAddresses each
// Instruction Data Unit learns), ascending, and the explicit messages the
// pass sent.
type Sources struct {
	off  []int32 // instruction i's predecessors are from[off[i]:off[i+1]]
	from []int32

	// BranchMessages counts the instructions with a non-sequential
	// successor, each of which identifies itself to its target.
	BranchMessages int
}

// Of returns instruction i's predecessors in ascending order.
func (s *Sources) Of(i int) []int32 {
	lo, hi := s.off[i], s.off[i+1]
	return s.from[lo:hi:hi]
}

// AddressesDown runs pass 1 over m. Every instruction with a
// non-sequential successor identifies itself to the target; sequential
// flow is implicit ("only those nodes that are non-sequential must be
// explicitly identified").
func AddressesDown(m *classfile.Method) Sources {
	n := len(m.Code)
	// One buffer: n+2 offsets (the extra one is the fill cursor's spare)
	// and at most two successors per instruction.
	buf := make([]int32, n+2+2*n)
	off, from := buf[:n+2], buf[n+2:]
	var s Sources
	// Count each instruction's predecessors into off[to+2], so that after
	// the prefix sum off[to+1] is where to's predecessors start and serves
	// as its fill cursor; filling leaves off[to+1] at to's end.
	for i := range m.Code {
		a, b, branch := successors(&m.Code[i], i)
		for _, to := range [2]int{a, b} {
			if to >= 0 && to < n {
				off[to+2]++
			}
		}
		if branch {
			s.BranchMessages++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for i := range m.Code {
		a, b, _ := successors(&m.Code[i], i)
		for _, to := range [2]int{a, b} {
			if to >= 0 && to < n {
				from[off[to+1]] = int32(i)
				off[to+1]++
			}
		}
	}
	s.off, s.from = off[:n+1], from[:off[n]]
	return s
}

// successors returns the instructions control can reach from instruction
// i (-1 for none), and whether i must send an explicit message to reach
// them: a return has none, a goto only its target, a conditional branch
// its target and i+1, anything else i+1.
func successors(in *bytecode.Instruction, i int) (a, b int, branch bool) {
	switch {
	case in.IsReturn():
		return -1, -1, false
	case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
		return in.Target, -1, true
	case in.IsBranch():
		return in.Target, i + 1, true
	default:
		return i + 1, -1, false
	}
}

// capture is one need resolved during pass 2: producer's pushed value
// feeds the consumer side in Target.
type capture struct {
	producer int32
	Target
}

// Resolve runs address resolution over a placed method. The method must
// be verified, as Loader.Load's placements are: verification gives every
// instruction a single stack depth, so a need arrives at each node with a
// single skip count, and the needs-up walk marks nodes rather than
// (node, skip) states.
func Resolve(p *Placement) (*Resolution, error) {
	m := p.Method
	n := len(m.Code)
	src := AddressesDown(m)
	r := &Resolution{Placement: p, QUp: make([]int32, n)}

	// ---- Pass 2: CMD_SEND_NEEDS_UP ----
	// Each instruction emits one need per pop; the need climbs the source
	// chains until a producer with an unsatisfied push captures it. A
	// Branch-ID tag deduplicates copies that reconverge above a control
	// split — modelled here by marking the nodes a need has visited, so
	// each node captures or forwards a need at most once. The marks and
	// the work stack serve every need of the method: a need's mark is its
	// own number, so nothing is cleared between needs. Captures are
	// gathered in walk order — consumers descending, sides ascending — and
	// laid out per producer afterwards.
	type state struct{ node, skip int }
	visited := make([]int32, n)
	var need int32
	pops := 0
	for i := range m.Code {
		pops += m.Code[i].Pop
	}
	caps := make([]capture, 0, pops) // one per need, more at merges
	work := make([]state, 0, 8)
	for c := n - 1; c >= 0; c-- {
		pop := m.Code[c].Pop
		for side := 1; side <= pop; side++ {
			need++
			producers := 0
			for _, s := range src.Of(c) {
				work = append(work, state{int(s), pop - side})
			}
			for len(work) > 0 {
				st := work[len(work)-1]
				work = work[:len(work)-1]
				if visited[st.node] == need {
					continue
				}
				visited[st.node] = need
				pin := &m.Code[st.node]
				if pin.Push > st.skip {
					// Captured: this node produces the wanted value.
					producers++
					caps = append(caps, capture{int32(st.node), Target{int32(c), int32(side)}})
					if st.node > c {
						r.BackMerges++
					}
					continue
				}
				// Forwarded further up: buffer accounting.
				r.QUp[st.node]++
				next := st.skip - pin.Push + pin.Pop
				sources := src.Of(st.node)
				for _, s := range sources {
					work = append(work, state{int(s), next})
				}
				if len(sources) == 0 {
					// The need reached the Anchor without resolution —
					// the load-time validation error of Section 6.2.
					return nil, fmt.Errorf(
						"fabric: resolve %s: need from instruction %d side %d reached the anchor",
						m.Signature(), c, side)
				}
			}
			if producers == 0 {
				return nil, fmt.Errorf(
					"fabric: resolve %s: instruction %d side %d found no producer",
					m.Signature(), c, side)
			}
			if producers > 1 {
				r.Merges++
			}
		}
		// Own needs buffered before forwarding anything from below.
		r.QUp[c] += int32(pop)
	}

	// Count each producer's captures into off[i+1]. Validation:
	// every push must have found at least one consumer.
	off := make([]int32, n+1)
	for _, cp := range caps {
		off[cp.producer+1]++
	}
	for i := range m.Code {
		if in := &m.Code[i]; in.Push > 0 && off[i+1] == 0 {
			return nil, fmt.Errorf(
				"fabric: resolve %s: instruction %d (%s) pushes %d but has no consumers",
				m.Signature(), i, in.Op, in.Push)
		}
		off[i+1] += off[i]
	}
	// Lay the captures out per producer, consumers ascending: the walk
	// gathered them one consumer at a time, consumers descending and each
	// consumer's sides ascending, so taking the consumers' runs last to
	// first, each run in order, gives every producer its targets sorted.
	// The visit marks are spent; they become the fill cursors.
	cursor := visited
	copy(cursor, off[:n])
	targets := make([]Target, len(caps))
	for hi := len(caps); hi > 0; {
		lo := hi - 1
		for lo > 0 && caps[lo-1].Consumer == caps[hi-1].Consumer {
			lo--
		}
		for _, cp := range caps[lo:hi] {
			targets[cursor[cp.producer]] = cp.Target
			cursor[cp.producer]++
		}
		hi = lo
	}
	r.targetOff, r.targets = off, targets

	for _, q := range r.QUp {
		r.MaxQUp = max(r.MaxQUp, int(q))
	}
	// Both passes traverse the full serial loop; branch sources add one
	// explicit message each.
	r.Cycles = 2*n + src.BranchMessages
	return r, nil
}
