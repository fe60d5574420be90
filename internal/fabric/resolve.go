package fabric

import (
	"fmt"
	"slices"

	"javaflow/internal/bytecode"
)

// Target is one resolved consumer address held by a producer node: the mesh
// destination and operand side its fired data is routed to (Section 6.2,
// "DataFlow Address Resolution"). These arrays are built by the fabric
// itself — "unlike other machines, these 'Push' addresses are generated
// automatically and not part of the instruction set stored in the General
// Purpose Processor's memory."
type Target struct {
	Consumer int // linear address of the consuming instruction
	Side     int // 1-based operand side at the consumer
}

// Resolution is the outcome of the two-pass serial-network protocol:
// CMD_SEND_ADDRESSES_DOWN followed by CMD_SEND_NEEDS_UP.
type Resolution struct {
	Placement *Placement

	// Targets[i] lists the resolved consumers of instruction i's pushes.
	Targets [][]Target

	// Sources[i] lists the control-flow predecessor instructions of i
	// (the sourceLinearAddresses each Instruction Data Unit learns during
	// the addresses-down pass).
	Sources [][]int

	// QUp[i] counts need-messages buffered at or forwarded through
	// instruction i during the needs-up pass; MaxQUp is the per-method
	// buffering requirement (Table 11).
	QUp    []int
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

// Resolve runs address resolution over a placed method. The method must
// be verified, as Loader.Load's placements are: verification gives every
// instruction a single stack depth, so a need arrives at each node with a
// single skip count, and the needs-up walk marks nodes rather than
// (node, skip) states.
func Resolve(p *Placement) (*Resolution, error) {
	m := p.Method
	n := len(m.Code)
	r := &Resolution{
		Placement: p,
		Targets:   make([][]Target, n),
		Sources:   make([][]int, n),
		QUp:       make([]int, n),
	}

	// ---- Pass 1: CMD_SEND_ADDRESSES_DOWN ----
	// Every instruction with a non-sequential successor identifies itself
	// to the target; sequential flow is implicit ("only those nodes that
	// are non-sequential must be explicitly identified"). Sources come out
	// in ascending order: they are appended as i ascends.
	branchMessages := 0
	addSource := func(to, from int) {
		if to < 0 || to >= n {
			return
		}
		r.Sources[to] = append(r.Sources[to], from)
	}
	for i := range m.Code {
		in := &m.Code[i]
		switch {
		case in.IsReturn():
			// no successors
		case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
			addSource(in.Target, i)
			branchMessages++
		case in.IsBranch():
			addSource(in.Target, i)
			addSource(i+1, i)
			branchMessages++
		default:
			addSource(i+1, i)
		}
	}

	// ---- Pass 2: CMD_SEND_NEEDS_UP ----
	// Each instruction emits one need per pop; the need climbs the source
	// chains until a producer with an unsatisfied push captures it. A
	// Branch-ID tag deduplicates copies that reconverge above a control
	// split — modelled here by marking the nodes a need has visited, so
	// each node captures or forwards a need at most once. The marks and
	// the work stack serve every need of the method: a need's mark is its
	// own number, so nothing is cleared between needs.
	type state struct{ node, skip int }
	visited := make([]int, n)
	need := 0
	work := make([]state, 0, 8)
	for c := n - 1; c >= 0; c-- {
		pop := m.Code[c].Pop
		for side := 1; side <= pop; side++ {
			need++
			producers := 0
			for _, s := range r.Sources[c] {
				work = append(work, state{s, pop - side})
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
					r.Targets[st.node] = append(r.Targets[st.node],
						Target{Consumer: c, Side: side})
					if st.node > c {
						r.BackMerges++
					}
					continue
				}
				// Forwarded further up: buffer accounting.
				r.QUp[st.node]++
				next := st.skip - pin.Push + pin.Pop
				for _, s := range r.Sources[st.node] {
					work = append(work, state{s, next})
				}
				if len(r.Sources[st.node]) == 0 {
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
		r.QUp[c] += pop
	}

	// Validation: every push must have found at least one consumer.
	for i := range m.Code {
		if in := &m.Code[i]; in.Push > 0 && len(r.Targets[i]) == 0 {
			return nil, fmt.Errorf(
				"fabric: resolve %s: instruction %d (%s) pushes %d but has no consumers",
				m.Signature(), i, in.Op, in.Push)
		}
		slices.SortFunc(r.Targets[i], func(a, b Target) int {
			if a.Consumer != b.Consumer {
				return a.Consumer - b.Consumer
			}
			return a.Side - b.Side
		})
	}

	for _, q := range r.QUp {
		if q > r.MaxQUp {
			r.MaxQUp = q
		}
	}
	// Both passes traverse the full serial loop; branch sources add one
	// explicit message each.
	r.Cycles = 2*n + branchMessages
	return r, nil
}

// FanOut returns instruction i's consumer count.
func (r *Resolution) FanOut(i int) int { return len(r.Targets[i]) }
