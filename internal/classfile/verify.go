package classfile

import (
	"fmt"
	"slices"
	"sync"

	"javaflow/internal/bytecode"
)

// VerifyError describes a verification failure at a specific instruction.
type VerifyError struct {
	Method string
	Index  int
	Reason string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify %s: instruction %d: %s", e.Method, e.Index, e.Reason)
}

// Verify performs the Preparation/Verification steps the General Purpose
// Processor must run before a method may be loaded into the DataFlow Fabric
// (Section 6.2): every instruction is reachable with a single consistent
// stack depth from all predecessors (the JVM restriction of Figure 9),
// stack depth never goes negative or exceeds a bound, local register
// accesses stay within MaxLocals, all call sites are signature-resolved,
// every switch has one valid arm table, and branch targets are in range.
// On success it fills in m.MaxStack.
func Verify(m *Method) error {
	if len(m.Code) == 0 {
		return &VerifyError{m.Signature(), 0, "empty code"}
	}
	if at, err := bytecode.CheckSwitches(m.Code, m.Switches); err != nil {
		return &VerifyError{m.Signature(), at, err.Error()}
	}
	if m.ParamRegisters() > m.MaxLocals {
		return &VerifyError{m.Signature(), 0,
			fmt.Sprintf("parameters need %d registers but MaxLocals is %d", m.ParamRegisters(), m.MaxLocals)}
	}

	w := walkers.Get().(*walker)
	maxDepth, err := w.walk(m)
	walkers.Put(w)
	if err != nil {
		return err
	}
	if m.MaxStack != 0 && maxDepth > m.MaxStack {
		return &VerifyError{m.Signature(), 0,
			fmt.Sprintf("computed max stack %d exceeds declared %d", maxDepth, m.MaxStack)}
	}
	// Skip the no-op rewrite on re-verification: corpus methods are
	// verified (and stamped) serially at construction, but deployment
	// re-verifies them from worker goroutines — possibly the same method
	// concurrently on two fabric geometries — and an unconditional write
	// of the identical value is still a data race.
	if m.MaxStack != maxDepth {
		m.MaxStack = maxDepth
		m.hash.Store(0)
	}
	return nil
}

// flowKind is how control leaves an instruction, as Verify's walk reads
// it.
type flowKind uint8

const (
	flowNext       flowKind = iota // falls through to the next instruction
	flowBranch                     // its Target (when it has one), then the next
	flowGoto                       // its Target only
	flowSwitch                     // its Target (the default), then each arm
	flowJsr                        // a subroutine entry and the instruction after
	flowRet                        // a dynamic successor: none to follow
	flowReturn                     // ends the method; the stack must be empty after
	flowReturnVoid                 // return and athrow: ends the method
)

// opFlow is what Verify reads of an opcode for every instruction: how
// control leaves it, and the register it accesses (noLocal when none,
// localInA when the register is the A operand).
type opFlow struct {
	kind  flowKind
	local int8
}

const (
	noLocal  = -2
	localInA = -1
)

// flows is derived once from the bytecode package's own predicates, so the
// walk classifies every opcode exactly as LocalIndex, IsReturn and IsBranch
// do.
var flows = func() *[256]opFlow {
	t := new([256]opFlow)
	for i := range t {
		op := bytecode.Opcode(i)
		in := bytecode.Instruction{Op: op, Target: 0}
		f := &t[i]
		f.local = noLocal
		if r0, ok := in.LocalIndex(); ok {
			in.A = 1
			if r1, _ := in.LocalIndex(); r1 != r0 {
				f.local = localInA
			} else {
				f.local = int8(r0)
			}
		}
		switch {
		case op == bytecode.Jsr || op == bytecode.JsrW:
			f.kind = flowJsr
		case op == bytecode.Ret:
			f.kind = flowRet
		case in.IsReturn() && (op == bytecode.Return || op == bytecode.Athrow):
			f.kind = flowReturnVoid
		case in.IsReturn():
			f.kind = flowReturn
		case op == bytecode.Goto || op == bytecode.GotoW:
			f.kind = flowGoto
		case op == bytecode.Lookupswitch || op == bytecode.Tableswitch:
			f.kind = flowSwitch
		case in.IsBranch():
			f.kind = flowBranch
		}
	}
	return t
}()

// walker holds the depth array and work list of one Verify walk; walkers
// recycles them, since deployment verifies from many goroutines and the
// corpus verifies every method it builds.
type walker struct {
	depthAt []int
	work    []workItem
	visited int // instructions reached so far
}

type workItem struct{ idx, depth int }

var walkers = sync.Pool{New: func() any { return new(walker) }}

const unvisited = -1

// walk visits every instruction reachable from the entry, depth first,
// and returns the greatest stack depth any reaches.
func (w *walker) walk(m *Method) (int, error) {
	code := m.Code
	n := len(code)
	w.depthAt = slices.Grow(w.depthAt[:0], n)[:n]
	for i := range w.depthAt {
		w.depthAt[i] = unvisited
	}
	w.depthAt[0] = 0
	w.visited = 1
	w.work = w.work[:0]
	maxDepth := 0

	for item := (workItem{0, 0}); ; {
		in := &code[item.idx]
		f := flows[in.Op]

		if in.Pop == bytecode.VarPop {
			return 0, failAt(m, item.idx, fmt.Sprintf("%s has unresolved signature (GPP resolution step missing)", in.Op))
		}
		if f.local != noLocal {
			reg := int(f.local)
			if reg == localInA {
				reg = int(in.A)
			}
			if reg >= m.MaxLocals {
				return 0, failAt(m, item.idx, fmt.Sprintf("register %d out of range (MaxLocals %d)", reg, m.MaxLocals))
			}
		}
		after := item.depth - int(in.Pop)
		if after < 0 {
			return 0, failAt(m, item.idx, fmt.Sprintf("%s pops %d with only %d on stack", in.Op, in.Pop, item.depth))
		}
		after += int(in.Push)
		if after > maxDepth {
			maxDepth = after
		}

		// Successors, entered in the order the work list pops them last
		// first; last is the one entered last (when there is one), which
		// would be popped straight away and so is taken directly. jsr/ret need
		// subroutine-aware treatment: the subroutine entry sees the pushed
		// return address; the jsr fall-through resumes at the depth before
		// the jsr (the subroutine consumes the address and preserves the
		// stack).
		hasLast, last, lastDepth := false, 0, after
		switch f.kind {
		case flowRet:
			// successor is dynamic (the captured return address)
		case flowReturn:
			// value-returning forms consume their operand via Pop; the
			// stack must be clean afterwards in our single-method model.
			// (The architected JVM discards leftovers; the fabric has no
			// way to, so the corpus keeps stacks clean.)
			if after != 0 {
				return 0, failAt(m, item.idx, fmt.Sprintf("stack not empty (%d) at %s", after, in.Op))
			}
		case flowReturnVoid:
		case flowGoto:
			hasLast, last = true, int(in.Target)
		case flowSwitch:
			if !w.enter(int(in.Target), after) {
				return 0, failAt(m, item.idx, w.refusal(int(in.Target), after))
			}
			_, targets := m.Arms(item.idx)
			for _, t := range targets {
				if !w.enter(t, after) {
					return 0, failAt(m, item.idx, w.refusal(t, after))
				}
			}
		default: // flowNext, flowBranch, flowJsr
			if f.kind == flowJsr || f.kind == flowBranch && in.Target != bytecode.NoTarget {
				if !w.enter(int(in.Target), after) {
					return 0, failAt(m, item.idx, w.refusal(int(in.Target), after))
				}
			}
			if f.kind == flowJsr {
				lastDepth = item.depth
			}
			if item.idx+1 >= n {
				return 0, failAt(m, item.idx, "control flow falls off method end")
			}
			hasLast, last = true, item.idx+1
		}
		if hasLast {
			if uint(last) < uint(n) && w.depthAt[last] == unvisited {
				w.depthAt[last] = lastDepth
				w.visited++
				item = workItem{last, lastDepth}
				continue
			}
			if !w.enter(last, lastDepth) {
				return 0, failAt(m, item.idx, w.refusal(last, lastDepth))
			}
		}
		if len(w.work) == 0 {
			break
		}
		item = w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
	}

	if w.visited < n {
		for i, d := range w.depthAt {
			if d == unvisited {
				return 0, failAt(m, i, "unreachable instruction")
			}
		}
	}
	return maxDepth, nil
}

// enter reaches instruction t at stack depth depth, queueing it the first
// time. It reports false when t cannot be entered; refusal says why.
func (w *walker) enter(t, depth int) bool {
	if uint(t) >= uint(len(w.depthAt)) {
		return false
	}
	prev := w.depthAt[t]
	if prev == unvisited {
		w.depthAt[t] = depth
		w.visited++
		w.work = append(w.work, workItem{t, depth})
		return true
	}
	return prev == depth
}

// refusal says why enter(t, depth) failed.
func (w *walker) refusal(t, depth int) string {
	if uint(t) >= uint(len(w.depthAt)) {
		return fmt.Sprintf("branch target %d out of range", t)
	}
	return fmt.Sprintf("inconsistent stack depth at merge: %d vs %d (invalid per JVM rule, Figure 9)", w.depthAt[t], depth)
}

func failAt(m *Method, idx int, reason string) error {
	return &VerifyError{m.Signature(), idx, reason}
}

// EntryDepths returns the verified stack depth at entry to each instruction.
// The DataFlow address-resolution process depends on these depths being
// single-valued; the static analysis package uses them to enumerate
// producer/consumer arcs.
func EntryDepths(m *Method) ([]int, error) {
	if err := Verify(m); err != nil {
		return nil, err
	}
	depths := make([]int, len(m.Code))
	for i := range depths {
		depths[i] = -1
	}
	depths[0] = 0
	type workItem struct{ idx, depth int }
	work := []workItem{{0, 0}}
	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		in := m.Code[item.idx]
		after := item.depth - int(in.Pop) + int(in.Push)
		visit := func(idx int) {
			if depths[idx] == -1 {
				depths[idx] = after
				work = append(work, workItem{idx, after})
			}
		}
		if in.IsReturn() || in.Op == bytecode.Ret {
			continue
		}
		switch {
		case in.Op == bytecode.Jsr || in.Op == bytecode.JsrW:
			visit(int(in.Target))
			if depths[item.idx+1] == -1 {
				depths[item.idx+1] = item.depth
				work = append(work, workItem{item.idx + 1, item.depth})
			}
		case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
			visit(int(in.Target))
		case in.Op == bytecode.Lookupswitch || in.Op == bytecode.Tableswitch:
			visit(int(in.Target))
			_, targets := m.Arms(item.idx)
			for _, t := range targets {
				visit(t)
			}
		case in.IsBranch():
			visit(int(in.Target))
			visit(item.idx + 1)
		default:
			visit(item.idx + 1)
		}
	}
	return depths, nil
}
