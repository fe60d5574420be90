package fabric_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// referenceLoad and referenceResolve are the loader and resolver as they
// stood before the deploy path was tuned — a range loop copying every
// Instruction, two maps and a sort.Slice closure per operand need — frozen
// as the oracle the tuned versions must reproduce exactly.
func referenceLoad(f *fabric.Fabric, m *classfile.Method) (*fabric.Placement, error) {
	if err := classfile.Verify(m); err != nil {
		return nil, err
	}
	for i, in := range m.Code {
		switch in.Op {
		case bytecode.Tableswitch, bytecode.Lookupswitch,
			bytecode.Jsr, bytecode.JsrW, bytecode.Ret, bytecode.Wide:
			return nil, &fabric.LoadError{Method: m.Signature(),
				Reason: fmt.Sprintf("instruction %d (%s) requires GPP execution", i, in.Op)}
		}
		if in.Pop == bytecode.VarPop {
			return nil, &fabric.LoadError{Method: m.Signature(),
				Reason: fmt.Sprintf("instruction %d (%s) not signature-resolved", i, in.Op)}
		}
	}
	const maxNodes = 1 << 20
	p := &fabric.Placement{Fabric: f, Method: m, NodeOf: make([]int, len(m.Code))}
	cursor := 0
	for i, in := range m.Code {
		placed := false
		for n := cursor; n < maxNodes; n++ {
			if !f.Kind(n).Accepts(in.Group()) {
				continue
			}
			cursor = n + 1
			p.NodeOf[i] = n
			if n+1 > p.MaxNode {
				p.MaxNode = n + 1
			}
			placed = true
			break
		}
		if !placed {
			return nil, &fabric.LoadError{Method: m.Signature(),
				Reason: fmt.Sprintf("no %s-capable node within %d for instruction %d (%s)",
					fabric.KindFor(in.Group()), maxNodes, i, in.Op)}
		}
	}
	return p, nil
}

// refResolution is the reference resolver's own outcome: per-instruction
// target and source lists, as Resolution held them before it kept one flat
// target table and dropped the sources.
type refResolution struct {
	Targets        [][]fabric.Target
	Sources        [][]int
	BranchMessages int
	QUp            []int
	MaxQUp         int
	Cycles         int
	Merges         int
	BackMerges     int
}

func referenceResolve(p *fabric.Placement) (*refResolution, error) {
	m := p.Method
	n := len(m.Code)
	r := &refResolution{
		Targets: make([][]fabric.Target, n),
		Sources: make([][]int, n),
		QUp:     make([]int, n),
	}

	branchMessages := 0
	addSource := func(to, from int) {
		if to < 0 || to >= n {
			return
		}
		r.Sources[to] = append(r.Sources[to], from)
	}
	for i, in := range m.Code {
		switch {
		case in.IsReturn():
		case in.Op == bytecode.Goto || in.Op == bytecode.GotoW:
			addSource(int(in.Target), i)
			branchMessages++
		case in.IsBranch():
			addSource(int(in.Target), i)
			addSource(i+1, i)
			branchMessages++
		default:
			addSource(i+1, i)
		}
	}
	for i := range r.Sources {
		sort.Ints(r.Sources[i])
	}

	for c := n - 1; c >= 0; c-- {
		in := m.Code[c]
		for side := 1; side <= int(in.Pop); side++ {
			skip := int(in.Pop) - side
			visited := make(map[[2]int]bool)
			producers := map[int]bool{}

			type state struct{ node, skip int }
			work := make([]state, 0, 4)
			for _, s := range r.Sources[c] {
				work = append(work, state{s, skip})
			}
			for len(work) > 0 {
				st := work[len(work)-1]
				work = work[:len(work)-1]
				key := [2]int{st.node, st.skip}
				if visited[key] {
					continue
				}
				visited[key] = true
				pin := m.Code[st.node]
				if int(pin.Push) > st.skip {
					if !producers[st.node] {
						producers[st.node] = true
						r.Targets[st.node] = append(r.Targets[st.node],
							fabric.Target{Consumer: int32(c), Side: int32(side)})
						if st.node > c {
							r.BackMerges++
						}
					}
					continue
				}
				r.QUp[st.node]++
				next := st.skip - int(pin.Push) + int(pin.Pop)
				for _, s := range r.Sources[st.node] {
					work = append(work, state{s, next})
				}
				if len(r.Sources[st.node]) == 0 {
					return nil, fmt.Errorf(
						"fabric: resolve %s: need from instruction %d side %d reached the anchor",
						m.Signature(), c, side)
				}
			}
			if len(producers) == 0 {
				return nil, fmt.Errorf(
					"fabric: resolve %s: instruction %d side %d found no producer",
					m.Signature(), c, side)
			}
			if len(producers) > 1 {
				r.Merges++
			}
		}
		r.QUp[c] += int(in.Pop)
	}

	for i, in := range m.Code {
		if in.Push > 0 && len(r.Targets[i]) == 0 {
			return nil, fmt.Errorf(
				"fabric: resolve %s: instruction %d (%s) pushes %d but has no consumers",
				m.Signature(), i, in.Op, in.Push)
		}
		sort.Slice(r.Targets[i], func(a, b int) bool {
			ta, tb := r.Targets[i][a], r.Targets[i][b]
			if ta.Consumer != tb.Consumer {
				return ta.Consumer < tb.Consumer
			}
			return ta.Side < tb.Side
		})
	}

	for _, q := range r.QUp {
		if q > r.MaxQUp {
			r.MaxQUp = q
		}
	}
	r.BranchMessages = branchMessages
	r.Cycles = 2*n + branchMessages
	return r, nil
}

// sameResolution reports the first difference between got and the
// reference's want, or "": every instruction's targets, in order, and
// pass 1's sources, then the buffering and the counts.
func sameResolution(m *classfile.Method, got *fabric.Resolution, want *refResolution) string {
	src := fabric.AddressesDown(m)
	total := 0
	for i := range m.Code {
		if g, w := got.TargetsOf(i), want.Targets[i]; !slices.Equal(g, w) {
			return fmt.Sprintf("instruction %d targets %v, want %v", i, g, w)
		}
		total += len(want.Targets[i])
		if g, w := src.Of(i), want.Sources[i]; !slices.EqualFunc(g, w, func(a int32, b int) bool { return int(a) == b }) {
			return fmt.Sprintf("instruction %d sources %v, want %v", i, g, w)
		}
		if int(got.QUp[i]) != want.QUp[i] {
			return fmt.Sprintf("instruction %d QUp %d, want %d", i, got.QUp[i], want.QUp[i])
		}
	}
	switch {
	case got.NumTargets() != total:
		return fmt.Sprintf("%d targets, want %d", got.NumTargets(), total)
	case len(got.QUp) != len(want.QUp):
		return fmt.Sprintf("%d QUp entries, want %d", len(got.QUp), len(want.QUp))
	case src.BranchMessages != want.BranchMessages:
		return fmt.Sprintf("%d branch messages, want %d", src.BranchMessages, want.BranchMessages)
	case got.MaxQUp != want.MaxQUp || got.Cycles != want.Cycles ||
		got.Merges != want.Merges || got.BackMerges != want.BackMerges:
		return fmt.Sprintf("MaxQUp/Cycles/Merges/BackMerges %d/%d/%d/%d, want %d/%d/%d/%d",
			got.MaxQUp, got.Cycles, got.Merges, got.BackMerges,
			want.MaxQUp, want.Cycles, want.Merges, want.BackMerges)
	}
	return ""
}

// needsTheCorpusLacks returns methods whose operand needs climb through
// control flow: a value pushed before a diamond and consumed after it (the
// need climbs both arms and meets itself above the split) and a value
// carried around a loop (the need meets itself at the back edge). The
// generated corpus keeps its stack empty at branches, so without these the
// walk's deduplication would go unexercised. A dup feeding both sides of
// one multiply gives one producer two targets at one consumer, which must
// come out by side; the corpus has none.
func needsTheCorpusLacks(t *testing.T) []*classfile.Method {
	t.Helper()
	build := func(name string, asm func(a *bytecode.Assembler)) *classfile.Method {
		a := bytecode.NewAssembler()
		asm(a)
		code, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return &classfile.Method{Class: "T", Name: name, MaxLocals: 4, Code: code, Pool: classfile.NewConstantPool()}
	}
	return []*classfile.Method{
		build("diamond", func(a *bytecode.Assembler) {
			a.ILoad(0).ILoad(1).Branch(bytecode.Ifeq, "else").
				Iinc(2, 1).Branch(bytecode.Goto, "join").
				Label("else").Iinc(2, 2).
				Label("join").IStore(3).Op(bytecode.Return)
		}),
		build("loop", func(a *bytecode.Assembler) {
			a.ILoad(0).
				Label("head").Iinc(1, -1).ILoad(1).Branch(bytecode.Ifne, "head").
				IStore(3).Op(bytecode.Return)
		}),
		build("square", func(a *bytecode.Assembler) {
			a.ILoad(0).Op(bytecode.Dup).Op(bytecode.Imul).IStore(1).Op(bytecode.Return)
		}),
	}
}

// TestResolveMatchesReference: over the repository benchmark's corpus on
// every configuration, the loader produces placements deep-equal to the
// reference's, the resolver the same targets, sources, buffering and
// counts, and both reject the same methods with the same error text.
func TestResolveMatchesReference(t *testing.T) {
	methods := append(workload.Corpus(2014, 1580), needsTheCorpusLacks(t)...)
	accepted, rejected := 0, 0
	for _, cfg := range sim.Configurations() {
		for _, m := range methods {
			var got *fabric.Resolution
			var want *refResolution
			gotP, gotErr := (&fabric.Loader{Fabric: cfg.Fabric}).Load(m)
			if gotErr == nil {
				got, gotErr = fabric.Resolve(gotP)
			}
			wantP, wantErr := referenceLoad(cfg.Fabric, m)
			if wantErr == nil {
				want, wantErr = referenceResolve(wantP)
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s on %s: error %v, reference %v", m.Signature(), cfg.Name, gotErr, wantErr)
			}
			if gotErr != nil {
				rejected++
				continue
			}
			accepted++
			if got.Placement != gotP || !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%s on %s: placement differs from the reference:\n got %+v\nwant %+v",
					m.Signature(), cfg.Name, gotP, wantP)
			}
			if diff := sameResolution(m, got, want); diff != "" {
				t.Fatalf("%s on %s: resolution differs from the reference: %s", m.Signature(), cfg.Name, diff)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d accepted, %d rejected: the sweep must exercise both", accepted, rejected)
	}
	t.Logf("%d deployments equal, %d rejections equal", accepted, rejected)
}
