package fabric_test

import (
	"fmt"
	"reflect"
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

func referenceResolve(p *fabric.Placement) (*fabric.Resolution, error) {
	m := p.Method
	n := len(m.Code)
	r := &fabric.Resolution{
		Placement: p,
		Targets:   make([][]fabric.Target, n),
		Sources:   make([][]int, n),
		QUp:       make([]int, n),
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
	for i := range r.Sources {
		sort.Ints(r.Sources[i])
	}

	for c := n - 1; c >= 0; c-- {
		in := m.Code[c]
		for side := 1; side <= in.Pop; side++ {
			skip := in.Pop - side
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
				if pin.Push > st.skip {
					if !producers[st.node] {
						producers[st.node] = true
						r.Targets[st.node] = append(r.Targets[st.node],
							fabric.Target{Consumer: c, Side: side})
						if st.node > c {
							r.BackMerges++
						}
					}
					continue
				}
				r.QUp[st.node]++
				next := st.skip - pin.Push + pin.Pop
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
		r.QUp[c] += in.Pop
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
	r.Cycles = 2*n + branchMessages
	return r, nil
}

// deploy runs load then resolve, the pipeline sim.DeployMethod runs.
func deploy(f *fabric.Fabric, m *classfile.Method,
	load func(*fabric.Fabric, *classfile.Method) (*fabric.Placement, error),
	resolve func(*fabric.Placement) (*fabric.Resolution, error)) (*fabric.Resolution, error) {
	p, err := load(f, m)
	if err != nil {
		return nil, err
	}
	return resolve(p)
}

// needsAcrossControlFlow returns methods whose operand needs climb through
// control flow: a value pushed before a diamond and consumed after it (the
// need climbs both arms and meets itself above the split) and a value
// carried around a loop (the need meets itself at the back edge). The
// generated corpus keeps its stack empty at branches, so without these the
// walk's deduplication would go unexercised.
func needsAcrossControlFlow(t *testing.T) []*classfile.Method {
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
	}
}

// TestResolveMatchesReference: over the repository benchmark's corpus on
// every configuration, the loader and resolver produce placements and
// resolutions deep-equal to the reference's, and reject the same methods
// with the same error text.
func TestResolveMatchesReference(t *testing.T) {
	load := func(f *fabric.Fabric, m *classfile.Method) (*fabric.Placement, error) {
		return (&fabric.Loader{Fabric: f}).Load(m)
	}
	methods := append(workload.Corpus(2014, 1580), needsAcrossControlFlow(t)...)
	accepted, rejected := 0, 0
	for _, cfg := range sim.Configurations() {
		for _, m := range methods {
			got, gotErr := deploy(cfg.Fabric, m, load, fabric.Resolve)
			want, wantErr := deploy(cfg.Fabric, m, referenceLoad, referenceResolve)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s on %s: error %v, reference %v", m.Signature(), cfg.Name, gotErr, wantErr)
			}
			if gotErr != nil {
				rejected++
				continue
			}
			accepted++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: resolution differs from the reference:\n got %+v\nwant %+v",
					m.Signature(), cfg.Name, got, want)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d accepted, %d rejected: the sweep must exercise both", accepted, rejected)
	}
	t.Logf("%d deployments equal, %d rejections equal", accepted, rejected)
}
