package dataflow

import (
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/workload"
)

func method(t *testing.T, maxLocals int, build func(a *bytecode.Assembler)) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{
		Class: "T", Name: "m", MaxLocals: maxLocals,
		Code: code, Switches: a.Switches(), Pool: classfile.NewConstantPool(),
	}
	return m
}

// The Figure 21 example: three register loads feeding an add chain.
//
//	0: iload_1  1: iload_2  2: iload_3  3: iadd  4: iadd  5: istore 4
//	6: return
func TestAnalyzeSimpleAddressResolutionExample(t *testing.T) {
	m := method(t, 5, func(a *bytecode.Assembler) {
		a.ILoad(1).ILoad(2).ILoad(3).
			Op(bytecode.Iadd).Op(bytecode.Iadd).
			Local(bytecode.Istore, 4).
			Op(bytecode.Return)
	})
	an, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	// Expected arcs (matching Figure 21's resolution):
	//   iload_2 (#1) -> iadd (#3) side 1, iload_3 (#2) -> iadd (#3) side 2,
	//   iload_1 (#0) -> iadd (#4) side 1, iadd (#3) -> iadd (#4) side 2,
	//   iadd (#4) -> istore (#5) side 1.
	want := []Arc{
		{0, 4, 1},
		{1, 3, 1},
		{2, 3, 2},
		{3, 4, 2},
		{4, 5, 1},
	}
	if len(an.Arcs) != len(want) {
		t.Fatalf("arcs = %+v, want %+v", an.Arcs, want)
	}
	for i, w := range want {
		if an.Arcs[i] != w {
			t.Errorf("arc %d = %+v, want %+v", i, an.Arcs[i], w)
		}
	}
	if an.Merges != 0 || an.BackMerges != 0 {
		t.Errorf("merges=%d back=%d, want 0/0", an.Merges, an.BackMerges)
	}
	if an.FanOut[0] != 1 || an.FanOut[3] != 1 {
		t.Errorf("fanout = %v", an.FanOut)
	}
}

// A dataflow merge: two branch arms each push a value consumed at the join
// (the Figure 22 situation).
func TestAnalyzeDataflowMerge(t *testing.T) {
	m := method(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Branch(bytecode.Ifeq, "else"). // 1
			Op(bytecode.Iconst1).          // 2 pushes
			Branch(bytecode.Goto, "join"). // 3
			Label("else").
			Op(bytecode.Iconst2). // 4 pushes
			Label("join").
			IStore(1). // 5 consumes from both 2 and 4
			Op(bytecode.Return)
	})
	an, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if an.Merges != 1 {
		t.Errorf("merges = %d, want 1", an.Merges)
	}
	var producers []int
	for _, arc := range an.Arcs {
		if arc.Consumer == 5 {
			producers = append(producers, arc.Producer)
		}
	}
	if len(producers) != 2 || producers[0] != 2 || producers[1] != 4 {
		t.Errorf("join producers = %v, want [2 4]", producers)
	}
	if an.BackMerges != 0 {
		t.Errorf("back merges = %d, want 0", an.BackMerges)
	}
}

func TestAnalyzeJumpStatistics(t *testing.T) {
	m := method(t, 2, func(a *bytecode.Assembler) {
		a.Label("top").
			Iinc(0, 1). // 0
			ILoad(0).   // 1
			PushInt(10).
			Branch(bytecode.IfIcmplt, "top"). // 3, back jump length 3
			ILoad(0).
			Branch(bytecode.Ifne, "end"). // 5, forward jump length 2
			Op(bytecode.Nop).
			Label("end").
			Op(bytecode.Return)
	})
	an, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.BackJumps) != 1 || an.BackJumps[0].Length() != 3 {
		t.Errorf("back jumps = %+v", an.BackJumps)
	}
	if len(an.ForwardJumps) != 1 || an.ForwardJumps[0].Length() != 2 {
		t.Errorf("forward jumps = %+v", an.ForwardJumps)
	}
}

func TestAnalyzeFanOutThroughDup(t *testing.T) {
	// dup is itself an instruction node: it consumes one value and
	// produces two, so the original producer's fan-out stays 1.
	m := method(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0). // 0
				Op(bytecode.Dup).   // 1: consumes #0, produces 2
				Op(bytecode.Iadd).  // 2: consumes both dup outputs
				IStore(1).          // 3
				Op(bytecode.Return) // 4
	})
	an, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if an.FanOut[0] != 1 {
		t.Errorf("iload fan-out = %d, want 1", an.FanOut[0])
	}
	if an.FanOut[1] != 2 {
		t.Errorf("dup fan-out = %d, want 2", an.FanOut[1])
	}
	if an.Merges != 0 {
		t.Errorf("merges = %d, want 0", an.Merges)
	}
}

func TestAnalyzeDetectsSpecial(t *testing.T) {
	m := method(t, 1, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Switch(map[int64]string{1: "one"}, "def").
			Label("one").Op(bytecode.Iconst1).Op(bytecode.Ireturn).
			Label("def").Op(bytecode.Iconst0).Op(bytecode.Ireturn)
	})
	an, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if !an.UsesSpecial {
		t.Error("lookupswitch should mark the method special")
	}
}

// The headline invariant of Section 5.4: across the entire corpus — named
// SPEC analogs plus the generated population — there are NO dataflow back
// merges. "Note that in the benchmarks, there are NO back merges" (Table 7).
func TestNoBackMergesAcrossCorpus(t *testing.T) {
	methods := workload.NamedMethods()
	for _, c := range workload.Generate(workload.GenConfig{Seed: 3, Count: 400}) {
		for _, m := range c.Methods {
			methods = append(methods, m)
		}
	}
	totalArcs := 0
	for _, m := range methods {
		an, err := Analyze(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Signature(), err)
		}
		totalArcs += len(an.Arcs)
		if an.BackMerges != 0 {
			t.Errorf("%s: %d back merges, want 0", m.Signature(), an.BackMerges)
		}
	}
	if totalArcs == 0 {
		t.Fatal("no arcs analyzed")
	}
}

func TestCorpusSummaryShapes(t *testing.T) {
	var methods []*classfile.Method
	for _, c := range workload.Generate(workload.GenConfig{Seed: 19, Count: 600}) {
		for _, m := range c.Methods {
			methods = append(methods, m)
		}
	}
	rows, err := AnalyzeAll(methods)
	if err != nil {
		t.Fatal(err)
	}
	f1 := Select(rows, Filter1, nil)
	if len(f1) == 0 || len(f1) >= len(rows) {
		t.Fatalf("filter1 selected %d of %d", len(f1), len(rows))
	}
	sum := Summarize(f1)

	// Table 9 shape: median ~29, small registers/stack, zero back merges.
	if sum.StaticInst.Median < 12 || sum.StaticInst.Median > 80 {
		t.Errorf("median size = %v, want near 29", sum.StaticInst.Median)
	}
	if sum.BackMerge.Max != 0 {
		t.Errorf("max back merges = %v, want 0", sum.BackMerge.Max)
	}
	// Table 10 shape: fan-out averages barely above 1 ("Due to the lack of
	// optimization in the JAVAC compiler, these numbers are very small").
	if sum.FanOutAvg.Mean < 1.0 || sum.FanOutAvg.Mean > 1.5 {
		t.Errorf("fan-out mean = %v, want ~1.0", sum.FanOutAvg.Mean)
	}
	// Table 10 shape: short arcs.
	if sum.ArcAvg.Mean < 1.0 || sum.ArcAvg.Mean > 6.0 {
		t.Errorf("arc avg mean = %v, want small", sum.ArcAvg.Mean)
	}
	// Registers per method ~ the paper's 4.45 mean.
	if sum.Registers.Mean < 2 || sum.Registers.Mean > 14 {
		t.Errorf("registers mean = %v", sum.Registers.Mean)
	}
}

func TestStaticMixTable6Shape(t *testing.T) {
	methods := workload.NamedMethods()
	mix := MixOf(methods)
	total := float64(mix.Total())
	if total == 0 {
		t.Fatal("empty mix")
	}
	arith := float64(mix.Arith) / total
	storage := float64(mix.Storage) / total
	if arith < 0.35 || arith > 0.85 {
		t.Errorf("arith = %.2f, want dominant (~0.60)", arith)
	}
	if storage < 0.05 || storage > 0.40 {
		t.Errorf("storage = %.2f, want ~0.20", storage)
	}
}

func TestSelectFilter2(t *testing.T) {
	rows := []MethodRow{
		{Signature: "a", StaticInst: 50},
		{Signature: "b", StaticInst: 50},
		{Signature: "c", StaticInst: 5},
		{Signature: "d", StaticInst: 2000},
	}
	hot := map[string]bool{"a": true, "c": true, "d": true}
	got := Select(rows, Filter2, hot)
	if len(got) != 1 || got[0].Signature != "a" {
		t.Errorf("Filter2 = %+v, want just 'a'", got)
	}
}
