package fabric

import (
	"testing"
	"time"

	"javaflow/internal/bytecode"
	"javaflow/internal/workload"
)

// The concurrent goroutine-per-node protocol must produce exactly the same
// placement and resolved dataflow as the deterministic loader/resolver.
func TestConcurrentMatchesDeterministic(t *testing.T) {
	methods := workload.NamedMethods()
	for _, c := range workload.Generate(workload.GenConfig{Seed: 31, Count: 60}) {
		for _, m := range c.Methods {
			methods = append(methods, m)
		}
	}
	for _, pattern := range [][]NodeKind{PatternCompact, PatternSparse, PatternHetero} {
		f := NewFabric(10, pattern)
		det := &Loader{Fabric: f}
		conc := &ConcurrentFabric{Fabric: f, Timeout: 30 * time.Second}

		checked := 0
		for _, m := range methods {
			if len(m.Code) > 400 {
				continue // keep goroutine counts reasonable in tests
			}
			detP, err := det.Load(m)
			if err != nil {
				continue // ineligible for the fabric
			}
			detR, err := Resolve(detP)
			if err != nil {
				t.Fatalf("%s: %v", m.Signature(), err)
			}

			concP, concTargets, err := conc.LoadAndResolve(m)
			if err != nil {
				t.Fatalf("%s: concurrent: %v", m.Signature(), err)
			}
			for i := range detP.NodeOf {
				if concP.NodeOf[i] != detP.NodeOf[i] {
					t.Fatalf("%s: instruction %d at node %d concurrently, %d deterministically",
						m.Signature(), i, concP.NodeOf[i], detP.NodeOf[i])
				}
			}
			for i := range m.Code {
				want := detR.TargetsOf(i)
				if len(concTargets[i]) != len(want) {
					t.Fatalf("%s: instr %d: %d targets concurrently, %d deterministically",
						m.Signature(), i, len(concTargets[i]), len(want))
				}
				for k := range want {
					if concTargets[i][k] != want[k] {
						t.Fatalf("%s: instr %d target %d: %+v vs %+v",
							m.Signature(), i, k, concTargets[i][k], want[k])
					}
				}
			}
			checked++
		}
		if checked < 20 {
			t.Fatalf("only %d methods checked on pattern", checked)
		}
	}
}

func TestConcurrentRejectsIneligible(t *testing.T) {
	m := testMethod(t, 1, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Switch(map[int64]string{1: "x"}, "x").
			Label("x").Op(bytecode.Return)
	})
	conc := &ConcurrentFabric{Fabric: NewFabric(10, PatternCompact)}
	if _, _, err := conc.LoadAndResolve(m); err == nil {
		t.Fatal("switch method should be rejected")
	}
}
