// Package dataflow performs the static DataFlow/ControlFlow analysis of
// Chapter 5 (Section 5.4) and the per-method statistics of Section 7.2: it
// translates a verified ByteCode method into its producer/consumer arc set
// and measures fan-out, arc lengths, dataflow merges (and proves the absence
// of back merges), and forward/backward jump profiles.
//
// The load-bearing invariant: every analysis here is a pure function of
// the verified method body, so results may be cached by body hash and
// regenerated tables compare byte-for-byte across runs and machines.
package dataflow

import (
	"fmt"
	"sort"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// Arc is one producer→consumer dataflow edge: the producer's push is wired
// to one input side of the consumer during address resolution.
type Arc struct {
	Producer int // linear address of the pushing instruction
	Consumer int // linear address of the popping instruction
	Side     int // 1-based operand side at the consumer (1 = deepest)
}

// Length is the linear distance the operand travels.
func (a Arc) Length() int {
	d := a.Consumer - a.Producer
	if d < 0 {
		return -d
	}
	return d
}

// IsBack reports a dataflow back merge: data flowing to an earlier linear
// address. The JVM's stack-shape rule makes these impossible in valid
// JAVAC output (Section 5.4, Table 7 reports zero).
func (a Arc) IsBack() bool { return a.Consumer < a.Producer }

// Jump describes one control-flow branch site.
type Jump struct {
	From, To int
}

// Length is the linear branch distance.
func (j Jump) Length() int {
	d := j.To - j.From
	if d < 0 {
		return -d
	}
	return d
}

// Analysis is the full static dataflow description of one method.
type Analysis struct {
	Method *classfile.Method

	Arcs []Arc
	// FanOut[i] is the number of consumer sides instruction i feeds.
	FanOut map[int]int
	// Merges counts consumer sides fed by two or more producers.
	Merges int
	// BackMerges counts arcs that flow backwards (always 0 for valid
	// JAVAC-shaped code).
	BackMerges int

	ForwardJumps []Jump
	BackJumps    []Jump

	// RegistersUsed is the highest local register index touched plus one.
	RegistersUsed int
	// UsesSpecial reports instructions the fabric delegates wholesale to
	// the GPP (switches, jsr/ret, wide) — methods with these are excluded
	// from fabric simulation, as in the dissertation.
	UsesSpecial bool
	// Calls counts invoke sites.
	Calls int
}

// producerSet is a small sorted set of instruction indices.
type producerSet []int

func (s producerSet) add(v int) (producerSet, bool) {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// union merges b into a, reporting whether a changed.
func (s producerSet) union(b producerSet) (producerSet, bool) {
	changed := false
	for _, v := range b {
		var c bool
		s, c = s.add(v)
		changed = changed || c
	}
	return s, changed
}

// absState is the abstract stack: one producer set per slot.
type absState []producerSet

func (st absState) clone() absState {
	out := make(absState, len(st))
	for i, s := range st {
		out[i] = append(producerSet(nil), s...)
	}
	return out
}

// Analyze computes the dataflow analysis for a verified method.
func Analyze(m *classfile.Method) (*Analysis, error) {
	if err := classfile.Verify(m); err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	an := &Analysis{Method: m, FanOut: make(map[int]int)}

	// Control-flow statistics and flags from a single scan.
	for i, in := range m.Code {
		if reg, ok := in.LocalIndex(); ok && reg+1 > an.RegistersUsed {
			an.RegistersUsed = reg + 1
		}
		switch in.Group() {
		case bytecode.GroupSpecial:
			// new/newarray/anewarray are GPP service allocations the
			// fabric supports via Service messages; switches and
			// subroutines change control flow and exclude the method.
			switch in.Op {
			case bytecode.Tableswitch, bytecode.Lookupswitch,
				bytecode.Jsr, bytecode.JsrW, bytecode.Ret, bytecode.Wide:
				an.UsesSpecial = true
			}
		case bytecode.GroupCall:
			an.Calls++
		}
		if in.IsBranch() {
			j := Jump{From: i, To: int(in.Target)}
			if j.To > i {
				an.ForwardJumps = append(an.ForwardJumps, j)
			} else {
				an.BackJumps = append(an.BackJumps, j)
			}
		}
	}
	if pr := m.ParamRegisters(); pr > an.RegistersUsed {
		an.RegistersUsed = pr
	}

	// Abstract interpretation to a fixpoint: entry abstract stack per
	// instruction.
	entry := make([]absState, len(m.Code))
	seen := make([]bool, len(m.Code))
	entry[0] = absState{}
	seen[0] = true
	work := []int{0}

	propagate := func(from int, to int, st absState) error {
		if to < 0 || to >= len(m.Code) {
			return fmt.Errorf("dataflow: branch from %d to out-of-range %d", from, to)
		}
		if !seen[to] {
			entry[to] = st.clone()
			seen[to] = true
			work = append(work, to)
			return nil
		}
		if len(entry[to]) != len(st) {
			return fmt.Errorf("dataflow: inconsistent stack depth at %d (%d vs %d)", to, len(entry[to]), len(st))
		}
		changed := false
		for i := range st {
			var c bool
			entry[to][i], c = entry[to][i].union(st[i])
			changed = changed || c
		}
		if changed {
			work = append(work, to)
		}
		return nil
	}

	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		in := m.Code[idx]
		st := entry[idx].clone()

		if int(in.Pop) > len(st) {
			return nil, fmt.Errorf("dataflow: underflow at %d (%s)", idx, in.Op)
		}
		st = st[:len(st)-int(in.Pop)]
		for p := 0; p < int(in.Push); p++ {
			st = append(st, producerSet{idx})
		}

		switch {
		case in.IsReturn(), in.Op == bytecode.Ret:
			continue
		case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
			if err := propagate(idx, int(in.Target), st); err != nil {
				return nil, err
			}
		case in.Op == bytecode.Lookupswitch || in.Op == bytecode.Tableswitch:
			if err := propagate(idx, int(in.Target), st); err != nil {
				return nil, err
			}
			_, targets := m.Arms(idx)
			for _, t := range targets {
				if err := propagate(idx, t, st); err != nil {
					return nil, err
				}
			}
		case in.Op == bytecode.Jsr || in.Op == bytecode.JsrW:
			if err := propagate(idx, int(in.Target), st); err != nil {
				return nil, err
			}
			// fall-through resumes without the pushed return address
			if err := propagate(idx, idx+1, st[:len(st)-1]); err != nil {
				return nil, err
			}
		case in.IsBranch():
			if err := propagate(idx, int(in.Target), st); err != nil {
				return nil, err
			}
			if err := propagate(idx, idx+1, st); err != nil {
				return nil, err
			}
		default:
			if err := propagate(idx, idx+1, st); err != nil {
				return nil, err
			}
		}
	}

	// Collect arcs from the fixpoint.
	seenArc := make(map[Arc]bool)
	for idx, in := range m.Code {
		if !seen[idx] || in.Pop == 0 {
			continue
		}
		st := entry[idx]
		group := st[len(st)-int(in.Pop):]
		for side, producers := range group {
			if len(producers) >= 2 {
				an.Merges++
			}
			for _, p := range producers {
				arc := Arc{Producer: p, Consumer: idx, Side: side + 1}
				if seenArc[arc] {
					continue
				}
				seenArc[arc] = true
				an.Arcs = append(an.Arcs, arc)
				an.FanOut[p]++
				if arc.IsBack() {
					an.BackMerges++
				}
			}
		}
	}
	sort.Slice(an.Arcs, func(i, j int) bool {
		a, b := an.Arcs[i], an.Arcs[j]
		if a.Producer != b.Producer {
			return a.Producer < b.Producer
		}
		if a.Consumer != b.Consumer {
			return a.Consumer < b.Consumer
		}
		return a.Side < b.Side
	})
	return an, nil
}

// FanOutStats returns the per-producer fan-out values (only producers with
// at least one consumer).
func (an *Analysis) FanOutStats() []float64 {
	out := make([]float64, 0, len(an.FanOut))
	keys := make([]int, 0, len(an.FanOut))
	for k := range an.FanOut {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		out = append(out, float64(an.FanOut[k]))
	}
	return out
}

// ArcLengths returns every arc's linear length.
func (an *Analysis) ArcLengths() []float64 {
	out := make([]float64, len(an.Arcs))
	for i, a := range an.Arcs {
		out[i] = float64(a.Length())
	}
	return out
}

// JumpLengths extracts branch distances.
func JumpLengths(js []Jump) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = float64(j.Length())
	}
	return out
}
