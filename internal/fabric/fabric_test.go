package fabric

import (
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/dataflow"
	"javaflow/internal/workload"
)

func testMethod(t *testing.T, maxLocals int, build func(a *bytecode.Assembler)) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &classfile.Method{
		Class: "T", Name: "m", MaxLocals: maxLocals,
		Code: code, Pool: classfile.NewConstantPool(),
	}
}

func TestNodeKindAcceptance(t *testing.T) {
	cases := []struct {
		kind NodeKind
		op   bytecode.Opcode
		want bool
	}{
		{KindUniversal, bytecode.Dmul, true},
		{KindBlank, bytecode.Nop, false},
		{KindArith, bytecode.Iadd, true},
		{KindArith, bytecode.Iload1, true},
		{KindArith, bytecode.Dmul, false},
		{KindFloat, bytecode.Dmul, true},
		{KindFloat, bytecode.I2d, true},
		{KindFloat, bytecode.Iadd, false},
		{KindStorage, bytecode.Iaload, true},
		{KindStorage, bytecode.Ldc, true},
		{KindStorage, bytecode.Goto, false},
		{KindControl, bytecode.Goto, true},
		{KindControl, bytecode.Invokestatic, true},
		{KindControl, bytecode.Ireturn, true},
		{KindControl, bytecode.New, true},
		{KindControl, bytecode.Iadd, false},
	}
	for _, c := range cases {
		if got := c.kind.Accepts(c.op.Group()); got != c.want {
			t.Errorf("%s accepts %s = %v, want %v", c.kind, c.op, got, c.want)
		}
	}
}

func TestHeteroPatternMix(t *testing.T) {
	counts := make(map[NodeKind]int)
	for _, k := range PatternHetero {
		counts[k]++
	}
	if counts[KindArith] != 6 || counts[KindFloat] != 1 ||
		counts[KindStorage] != 2 || counts[KindControl] != 1 {
		t.Errorf("hetero pattern = %v, want 6/1/2/1", counts)
	}
}

func TestPositionsAndDistances(t *testing.T) {
	f := NewFabric(10, PatternCompact)
	x, y := f.Position(23)
	if x != 3 || y != 2 {
		t.Errorf("Position(23) = (%d,%d), want (3,2)", x, y)
	}
	if d := f.MeshDistance(0, 23); d != 5 {
		t.Errorf("MeshDistance(0,23) = %d, want 5 (3+2)", d)
	}
	if d := f.MeshDistance(7, 7); d != 1 {
		t.Errorf("self distance = %d, want 1", d)
	}
	if d := f.SerialDistance(3, 11); d != 8 {
		t.Errorf("SerialDistance = %d, want 8", d)
	}

	base := NewFabric(10, PatternCompact)
	base.Collapsed = true
	if base.MeshDistance(0, 99) != 1 || base.SerialDistance(0, 99) != 1 {
		t.Error("collapsed baseline must have unit distances")
	}
}

func TestLoaderCompactIsIdentity(t *testing.T) {
	m := testMethod(t, 5, func(a *bytecode.Assembler) {
		a.ILoad(1).ILoad(2).ILoad(3).Op(bytecode.Iadd).Op(bytecode.Iadd).
			Local(bytecode.Istore, 4).Op(bytecode.Return)
	})
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	p, err := l.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range p.NodeOf {
		if n != i {
			t.Errorf("instruction %d at node %d, want identity", i, n)
		}
	}
	if p.Ratio() != 1.0 {
		t.Errorf("compact ratio = %v, want 1.0", p.Ratio())
	}
}

func TestLoaderSparseRatioTwo(t *testing.T) {
	m := testMethod(t, 5, func(a *bytecode.Assembler) {
		a.ILoad(1).ILoad(2).Op(bytecode.Iadd).IStore(3).Op(bytecode.Return)
	})
	l := &Loader{Fabric: NewFabric(10, PatternSparse)}
	p, err := l.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	// Instructions land on even nodes 0,2,4,...; span = 2n-1 nodes.
	want := (2*len(m.Code) - 1)
	if p.MaxNode != want {
		t.Errorf("MaxNode = %d, want %d", p.MaxNode, want)
	}
	if r := p.Ratio(); r < 1.5 || r > 2.0 {
		t.Errorf("sparse ratio = %v, want ≈2", r)
	}
}

func TestLoaderHeteroGreedy(t *testing.T) {
	m := testMethod(t, 3, func(a *bytecode.Assembler) {
		a.DLoad(0).DLoad(1). // arith nodes (local reads)
					Op(bytecode.Dmul).  // float node
					DStore(2).          // arith node
					Op(bytecode.Return) // control node
	})
	l := &Loader{Fabric: NewFabric(10, PatternHetero)}
	p, err := l.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	f := l.Fabric
	for i, in := range m.Code {
		k := f.Kind(p.NodeOf[i])
		if !k.Accepts(in.Group()) {
			t.Errorf("instruction %d (%s) on incompatible %s node", i, in.Op, k)
		}
	}
	// Two instructions of the same kind must not share a node.
	seen := make(map[int]bool)
	for _, n := range p.NodeOf {
		if seen[n] {
			t.Fatalf("node %d hosts two instructions", n)
		}
		seen[n] = true
	}
	if p.Ratio() <= 1.0 {
		t.Errorf("hetero ratio = %v, want > 1", p.Ratio())
	}
}

func TestLoaderRejectsSwitchMethods(t *testing.T) {
	m := testMethod(t, 1, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Switch(map[int64]string{1: "x"}, "x").
			Label("x").Op(bytecode.Return)
	})
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	if _, err := l.Load(m); err == nil {
		t.Fatal("switch method should be rejected (GPP execution)")
	}
}

func TestResolveFigure21Example(t *testing.T) {
	// The Figure 21 walkthrough: iload_1 iload_2 iload_3 iadd iadd istore_4
	// return. The second message from the first iadd must climb past
	// already-satisfied producers to reach iload_1.
	m := testMethod(t, 5, func(a *bytecode.Assembler) {
		a.ILoad(1).ILoad(2).ILoad(3).Op(bytecode.Iadd).Op(bytecode.Iadd).
			Local(bytecode.Istore, 4).Op(bytecode.Return)
	})
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	p, err := l.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	wantTargets := map[int]Target{
		0: {4, 1}, // iload_1 feeds the second iadd, side 1
		1: {3, 1},
		2: {3, 2},
		3: {4, 2},
		4: {5, 1},
	}
	for prod, want := range wantTargets {
		if got := r.TargetsOf(prod); len(got) != 1 || got[0] != want {
			t.Errorf("producer %d targets %+v, want [%+v]", prod, got, want)
		}
	}
	if r.Merges != 0 || r.BackMerges != 0 {
		t.Errorf("merges=%d back=%d, want 0", r.Merges, r.BackMerges)
	}
	if r.Cycles < 2*len(m.Code) {
		t.Errorf("cycles = %d, want >= 2N", r.Cycles)
	}
}

func TestResolveMergeBranchIDs(t *testing.T) {
	// Figure 22's shape: both arms push a value consumed at the join.
	m := testMethod(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Branch(bytecode.Ifeq, "else").
			Op(bytecode.Iconst1).
			Branch(bytecode.Goto, "join").
			Label("else").
			Op(bytecode.Iconst2).
			Label("join").
			IStore(1).
			Op(bytecode.Return)
	})
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	p, _ := l.Load(m)
	r, err := Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Merges != 1 {
		t.Errorf("merges = %d, want 1", r.Merges)
	}
	if got := r.TargetsOf(2); len(got) != 1 || got[0] != (Target{5, 1}) {
		t.Errorf("then-arm targets = %+v", got)
	}
	if got := r.TargetsOf(4); len(got) != 1 || got[0] != (Target{5, 1}) {
		t.Errorf("else-arm targets = %+v", got)
	}
}

// Resolution must agree exactly with the independent static dataflow
// analysis across the whole corpus — the distributed protocol and the
// abstract interpretation compute the same arc set.
func TestResolveMatchesDataflowAnalysis(t *testing.T) {
	methods := workload.NamedMethods()
	for _, c := range workload.Generate(workload.GenConfig{Seed: 23, Count: 300}) {
		for _, m := range c.Methods {
			methods = append(methods, m)
		}
	}
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	checked := 0
	for _, m := range methods {
		p, err := l.Load(m)
		if err != nil {
			// switch/jsr methods are legitimately excluded
			continue
		}
		r, err := Resolve(p)
		if err != nil {
			t.Fatalf("%s: %v", m.Signature(), err)
		}
		an, err := dataflow.Analyze(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Signature(), err)
		}
		got := make(map[dataflow.Arc]bool)
		for prod := range m.Code {
			for _, tg := range r.TargetsOf(prod) {
				got[dataflow.Arc{Producer: prod, Consumer: int(tg.Consumer), Side: int(tg.Side)}] = true
			}
		}
		if len(got) != len(an.Arcs) {
			t.Fatalf("%s: resolver found %d arcs, analysis %d", m.Signature(), len(got), len(an.Arcs))
		}
		for _, arc := range an.Arcs {
			if !got[arc] {
				t.Fatalf("%s: analysis arc %+v missing from resolution", m.Signature(), arc)
			}
		}
		if r.BackMerges != an.BackMerges {
			t.Fatalf("%s: back merges %d vs %d", m.Signature(), r.BackMerges, an.BackMerges)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d methods cross-checked", checked)
	}
}

func TestResolveCyclesApproxTwiceInstructions(t *testing.T) {
	// Table 7: total resolution cycles ≈ 2× the instruction count.
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	var cycles, insts int
	for _, m := range workload.NamedMethods() {
		p, err := l.Load(m)
		if err != nil {
			continue
		}
		r, err := Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		cycles += r.Cycles
		insts += len(m.Code)
	}
	ratio := float64(cycles) / float64(insts)
	if ratio < 1.9 || ratio > 2.4 {
		t.Errorf("resolution cycles / instructions = %.3f, want ≈2 (Table 7)", ratio)
	}
}

func TestResolveQueueDepths(t *testing.T) {
	// Table 11: Max Q Up mean ≈ 3, max ≈ 11 across Filter-1 methods.
	l := &Loader{Fabric: NewFabric(10, PatternCompact)}
	var maxes []int
	for _, m := range workload.NamedMethods() {
		if !dataflow.InFilter1(len(m.Code)) {
			continue
		}
		p, err := l.Load(m)
		if err != nil {
			continue
		}
		r, err := Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		maxes = append(maxes, r.MaxQUp)
	}
	if len(maxes) == 0 {
		t.Fatal("no methods measured")
	}
	var sum int
	for _, v := range maxes {
		sum += v
	}
	mean := float64(sum) / float64(len(maxes))
	if mean < 1.5 || mean > 10 {
		t.Errorf("mean MaxQUp = %.2f, want small (paper: 3.03)", mean)
	}
}

// A fabric with too few nodes must reject methods cleanly (the capacity
// failure the GPP falls back from by interpreting the method itself).
func TestLoaderCapacityExhaustion(t *testing.T) {
	m := testMethod(t, 3, func(a *bytecode.Assembler) {
		for i := 0; i < 30; i++ {
			a.ILoad(0).ILoad(1).Op(bytecode.Iadd).IStore(2)
		}
		a.Op(bytecode.Return)
	})
	l := &Loader{Fabric: NewFabric(10, PatternCompact), MaxNodes: 16}
	_, err := l.Load(m)
	var le *LoadError
	if err == nil {
		t.Fatal("expected capacity failure")
	}
	if !asLoadErr(err, &le) {
		t.Fatalf("want *LoadError, got %T: %v", err, err)
	}
}

func asLoadErr(err error, target **LoadError) bool {
	le, ok := err.(*LoadError)
	if ok {
		*target = le
	}
	return ok
}

// A heterogeneous fabric with no float nodes cannot host float methods.
func TestLoaderKindExhaustion(t *testing.T) {
	m := testMethod(t, 2, func(a *bytecode.Assembler) {
		a.DLoad(0).DLoad(1).Op(bytecode.Dmul).DStore(0).Op(bytecode.Return)
	})
	noFloat := []NodeKind{KindArith, KindStorage, KindControl}
	l := &Loader{Fabric: NewFabric(10, noFloat), MaxNodes: 1000}
	if _, err := l.Load(m); err == nil {
		t.Fatal("expected failure: no float-capable nodes")
	}
}
