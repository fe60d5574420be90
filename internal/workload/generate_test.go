package workload

import (
	"sort"
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/jvm"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Seed: 42, Count: 50})
	b := Generate(GenConfig{Seed: 42, Count: 50})
	ma, mb := flatten(a), flatten(b)
	if len(ma) != 50 || len(mb) != 50 {
		t.Fatalf("generated %d/%d methods, want 50", len(ma), len(mb))
	}
	for i := range ma {
		if len(ma[i].Code) != len(mb[i].Code) {
			t.Fatalf("method %d size differs: %d vs %d", i, len(ma[i].Code), len(mb[i].Code))
		}
		for j := range ma[i].Code {
			if ma[i].Code[j].Op != mb[i].Code[j].Op {
				t.Fatalf("method %d instr %d differs", i, j)
			}
		}
	}
	c := flatten(Generate(GenConfig{Seed: 43, Count: 50}))
	same := true
	for i := range ma {
		if len(ma[i].Code) != len(c[i].Code) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical size sequences")
	}
}

func flatten(classes []*classfile.Class) []*classfile.Method {
	var out []*classfile.Method
	for _, c := range classes {
		for _, n := range c.MethodNames() {
			out = append(out, c.Methods[n])
		}
	}
	return out
}

// TestCorpusDeterministicAcrossCalls pins the satellite fix: the same seed
// must yield an identical signature list on every call, with generated
// classes traversed in insertion order (which Generate guarantees is also
// lexical order).
func TestCorpusDeterministicAcrossCalls(t *testing.T) {
	a := Corpus(2014, 120)
	b := Corpus(2014, 120)
	if len(a) != len(b) {
		t.Fatalf("corpus lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Signature() != b[i].Signature() {
			t.Fatalf("corpus order diverges at %d: %s vs %s", i, a[i].Signature(), b[i].Signature())
		}
	}
	for _, c := range Generate(GenConfig{Seed: 2014, Count: 120}) {
		names := c.MethodNames()
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		for i := range names {
			if names[i] != sorted[i] {
				t.Fatalf("class %s insertion order is not lexical at %d: %s", c.Name, i, names[i])
			}
		}
	}
}

func TestGenerateAllVerifyAndRun(t *testing.T) {
	classes := Generate(GenConfig{Seed: 7, Count: 200})
	vm := jvm.NewMachine()
	vm.MaxSteps = 1 << 22
	for _, c := range classes {
		if err := vm.Register(c); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	for _, m := range flatten(classes) {
		if _, err := vm.Invoke(m); err != nil {
			t.Fatalf("%s: %v\n%s", m.Signature(), err, bytecode.Disassemble(m.Code))
		}
	}
}

func TestGenerateSizeDistribution(t *testing.T) {
	methods := flatten(Generate(GenConfig{Seed: 11, Count: 1000}))
	var tiny, bulk, large, huge int
	var sumBulk int
	for _, m := range methods {
		n := len(m.Code)
		switch {
		case n <= 10:
			tiny++
		case n < 1000:
			bulk++
			sumBulk += n
		case n < 1400+400:
			huge++
		}
		if n >= 200 && n < 1000 {
			large++
		}
	}
	if tiny < 200 || tiny > 600 {
		t.Errorf("tiny methods = %d, want a substantial sub-Filter-1 tail", tiny)
	}
	if bulk < 400 {
		t.Errorf("Filter-1 bulk = %d, want the majority", bulk)
	}
	mean := float64(sumBulk) / float64(bulk)
	if mean < 25 || mean > 110 {
		t.Errorf("Filter-1 mean size = %.1f, want in the vicinity of the paper's 56", mean)
	}
	if large == 0 {
		t.Error("no large (200-1000) methods generated")
	}
	if huge == 0 {
		t.Error("no >1000 methods generated (needed to exercise Filter 1's upper bound)")
	}
}

func TestGenerateBranchStatistics(t *testing.T) {
	methods := flatten(Generate(GenConfig{Seed: 13, Count: 500}))
	var fwd, back, inFilter int
	for _, m := range methods {
		n := len(m.Code)
		if n <= 10 || n >= 1000 {
			continue
		}
		inFilter++
		for i, in := range m.Code {
			if in.IsBranch() {
				if int(in.Target) > i {
					fwd++
				} else {
					back++
				}
			}
		}
	}
	if inFilter == 0 {
		t.Fatal("no Filter-1 methods")
	}
	fAvg := float64(fwd) / float64(inFilter)
	bAvg := float64(back) / float64(inFilter)
	if fAvg < 1.0 || fAvg > 8.0 {
		t.Errorf("forward branches/method = %.2f, want near the paper's ~3", fAvg)
	}
	if bAvg < 0.1 || bAvg > 2.5 {
		t.Errorf("back branches/method = %.2f, want near the paper's ~0.6", bAvg)
	}
}

func TestGenerateStaticMixShape(t *testing.T) {
	methods := flatten(Generate(GenConfig{Seed: 17, Count: 500}))
	counts := make(map[bytecode.MixClass]int)
	total := 0
	for _, m := range methods {
		for _, in := range m.Code {
			counts[in.Group().Mix()]++
			total++
		}
	}
	pct := func(c bytecode.MixClass) float64 {
		return float64(counts[c]) / float64(total)
	}
	// Table 6's conclusion row: ~60% arith, ~10% float, ~10% control,
	// ~20% storage — with per-benchmark spreads of 50-91% arith. Allow
	// generous bands.
	if p := pct(bytecode.MixArith); p < 0.45 || p > 0.80 {
		t.Errorf("arith share = %.2f, want ~0.60", p)
	}
	if p := pct(bytecode.MixFloat); p < 0.04 || p > 0.25 {
		t.Errorf("float share = %.2f, want ~0.10", p)
	}
	if p := pct(bytecode.MixControl); p < 0.04 || p > 0.25 {
		t.Errorf("control share = %.2f, want ~0.10", p)
	}
	if p := pct(bytecode.MixStorage); p < 0.10 || p > 0.35 {
		t.Errorf("storage share = %.2f, want ~0.20", p)
	}
}
