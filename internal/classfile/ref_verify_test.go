package classfile

import (
	"fmt"

	"javaflow/internal/bytecode"
)

// refVerify is Verify as it stood when FuzzVerify was written, kept
// verbatim (a closure, LocalIndex and IsReturn in the loop, a fresh depth
// array and work list per call): the oracle FuzzVerify holds Verify to,
// with the same verdict, the same error text and the same MaxStack stamp.
func refVerify(m *Method) error {
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

	const unvisited = -1
	depthAt := make([]int, len(m.Code))
	for i := range depthAt {
		depthAt[i] = unvisited
	}

	type workItem struct{ idx, depth int }
	work := []workItem{{0, 0}}
	maxDepth := 0

	push := func(idx, depth int) error {
		if idx < 0 || idx >= len(m.Code) {
			return fmt.Errorf("branch target %d out of range", idx)
		}
		if prev := depthAt[idx]; prev != unvisited {
			if prev != depth {
				return fmt.Errorf("inconsistent stack depth at merge: %d vs %d (invalid per JVM rule, Figure 9)", prev, depth)
			}
			return nil
		}
		depthAt[idx] = depth
		work = append(work, workItem{idx, depth})
		return nil
	}
	depthAt[0] = 0

	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		in := &m.Code[item.idx]

		if in.Pop == bytecode.VarPop {
			return &VerifyError{m.Signature(), item.idx,
				fmt.Sprintf("%s has unresolved signature (GPP resolution step missing)", in.Op)}
		}
		if reg, ok := in.LocalIndex(); ok && reg >= m.MaxLocals {
			return &VerifyError{m.Signature(), item.idx,
				fmt.Sprintf("register %d out of range (MaxLocals %d)", reg, m.MaxLocals)}
		}
		after := item.depth - int(in.Pop)
		if after < 0 {
			return &VerifyError{m.Signature(), item.idx,
				fmt.Sprintf("%s pops %d with only %d on stack", in.Op, in.Pop, item.depth)}
		}
		after += int(in.Push)
		if after > maxDepth {
			maxDepth = after
		}

		// Successors. jsr/ret need subroutine-aware treatment: the
		// subroutine entry sees the pushed return address; the jsr
		// fall-through resumes at the depth before the jsr (the
		// subroutine consumes the address and preserves the stack).
		if in.Op == bytecode.Jsr || in.Op == bytecode.JsrW {
			if err := push(int(in.Target), after); err != nil {
				return &VerifyError{m.Signature(), item.idx, err.Error()}
			}
			if item.idx+1 >= len(m.Code) {
				return &VerifyError{m.Signature(), item.idx, "control flow falls off method end"}
			}
			if err := push(item.idx+1, item.depth); err != nil {
				return &VerifyError{m.Signature(), item.idx, err.Error()}
			}
			continue
		}
		if in.Op == bytecode.Ret {
			continue // successor is dynamic (the captured return address)
		}
		if in.IsReturn() {
			if in.Op != bytecode.Return && in.Op != bytecode.Athrow && after != 0 {
				// value-returning forms consume their operand via Pop;
				// the stack must be clean afterwards in our single-method
				// model. (The architected JVM discards leftovers; the
				// fabric has no way to, so the corpus keeps stacks clean.)
				return &VerifyError{m.Signature(), item.idx,
					fmt.Sprintf("stack not empty (%d) at %s", after, in.Op)}
			}
			continue
		}
		switch {
		case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
			if err := push(int(in.Target), after); err != nil {
				return &VerifyError{m.Signature(), item.idx, err.Error()}
			}
		case in.Op == bytecode.Lookupswitch || in.Op == bytecode.Tableswitch:
			if err := push(int(in.Target), after); err != nil {
				return &VerifyError{m.Signature(), item.idx, err.Error()}
			}
			_, targets := m.Arms(item.idx)
			for _, t := range targets {
				if err := push(t, after); err != nil {
					return &VerifyError{m.Signature(), item.idx, err.Error()}
				}
			}
		case in.IsBranch():
			if err := push(int(in.Target), after); err != nil {
				return &VerifyError{m.Signature(), item.idx, err.Error()}
			}
			fallthrough
		default:
			if item.idx+1 >= len(m.Code) {
				return &VerifyError{m.Signature(), item.idx, "control flow falls off method end"}
			}
			if err := push(item.idx+1, after); err != nil {
				return &VerifyError{m.Signature(), item.idx, err.Error()}
			}
		}
	}

	for i, d := range depthAt {
		if d == unvisited {
			return &VerifyError{m.Signature(), i, "unreachable instruction"}
		}
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
