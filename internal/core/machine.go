// Package core orchestrates the JavaFlow machine end to end: verification
// on the General Purpose Processor, greedy loading into the DataFlow
// Fabric, distributed address resolution over the Serial Networks, and
// token-bundle execution — the full lifecycle of Section 6.2/6.3.
//
// The load-bearing invariant is deploy determinism: the same verified
// method on the same fabric geometry always yields the same placement
// and address resolution, which is what makes deployment caching,
// store keying and cross-node byte-identity possible at all. A fabric
// rejection (fabric.LoadError) is a deterministic result of that same
// function, not a transient failure.
package core

import (
	"fmt"
	"strings"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
)

// Machine is one configured JavaFlow machine instance.
type Machine struct {
	cfg    sim.Config
	loader *fabric.Loader
}

// NewMachine builds a machine for the given configuration.
func NewMachine(cfg sim.Config) *Machine {
	return &Machine{
		cfg:    cfg,
		loader: &fabric.Loader{Fabric: cfg.Fabric},
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() sim.Config { return m.cfg }

// Deployment is a method resident in the fabric, address-resolved and ready
// to execute.
type Deployment struct {
	Machine    *Machine
	Placement  *fabric.Placement
	Resolution *fabric.Resolution
}

// Deploy verifies, loads and resolves a method (the Figure 20 + Figure 22
// pipeline). Methods containing GPP-only instructions return a
// *fabric.LoadError. Placement.DescribeLoad renders the load walk.
func (m *Machine) Deploy(method *classfile.Method) (*Deployment, error) {
	placement, err := m.loader.Load(method)
	if err != nil {
		return nil, err
	}
	resolution, err := fabric.Resolve(placement)
	if err != nil {
		return nil, err
	}
	return &Deployment{Machine: m, Placement: placement, Resolution: resolution}, nil
}

// Execute runs the deployed method under one branch policy.
func (d *Deployment) Execute(policy sim.BranchPolicy) (sim.Result, error) {
	eng := sim.NewEngine(d.Machine.cfg, d.Resolution, policy)
	return eng.Run()
}

// ExecuteBoth runs both branch policies (the measurement methodology).
func (d *Deployment) ExecuteBoth() (sim.MethodRun, error) {
	run := sim.MethodRun{Signature: d.Placement.Method.Signature()}
	for _, policy := range []sim.BranchPolicy{sim.BP1, sim.BP2} {
		r, err := d.Execute(policy)
		if err != nil {
			return run, err
		}
		r.Policy = policy
		if policy == sim.BP1 {
			run.BP1 = r
		} else {
			run.BP2 = r
		}
	}
	return run, nil
}

// DescribeResolution renders the per-instruction resolved dataflow in the
// Figure 22 annotation style:
//
//	(x) A1 -> A2 [taken A3]  >> A4,s <<  pop/push  group
func (d *Deployment) DescribeResolution() string {
	m := d.Placement.Method
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow resolution of %s (%d instructions):\n", m.Signature(), len(m.Code))
	for i, in := range m.Code {
		dir := "(0)"
		if in.IsBranch() {
			if int(in.Target) > i {
				dir = "(+)"
			} else {
				dir = "(-)"
			}
		}
		var targets []string
		for _, tg := range d.Resolution.TargetsOf(i) {
			flag := ""
			if len(producersOf(d.Resolution, tg)) > 1 {
				flag = "M"
			}
			targets = append(targets, fmt.Sprintf("%d,%s%d", tg.Consumer, flag, tg.Side))
		}
		arrow := ""
		if len(targets) > 0 {
			arrow = " >> " + strings.Join(targets, " ") + " <<"
		}
		branch := ""
		if in.Target != bytecode.NoTarget {
			branch = fmt.Sprintf(" [taken %d]", in.Target)
		}
		fmt.Fprintf(&b, "  %s %3d %-20s%s%s  pop=%d push=%d  %s\n",
			dir, i, in.String(), branch, arrow, in.Pop, in.Push, in.Group())
	}
	fmt.Fprintf(&b, "  merges=%d backMerges=%d maxQUp=%d resolutionCycles=%d\n",
		d.Resolution.Merges, d.Resolution.BackMerges, d.Resolution.MaxQUp, d.Resolution.Cycles)
	return b.String()
}

// producersOf finds all producers feeding the same consumer side.
func producersOf(r *fabric.Resolution, tg fabric.Target) []int {
	var out []int
	for prod := range r.Placement.Method.Code {
		for _, t := range r.TargetsOf(prod) {
			if t == tg {
				out = append(out, prod)
			}
		}
	}
	return out
}

// DescribeTokenBundle renders the Figure 23 bundle for a method.
func DescribeTokenBundle(m *classfile.Method) string {
	var b strings.Builder
	fmt.Fprintf(&b, "token bundle for %s:\n", m.Signature())
	b.WriteString("  1. HEAD_TOKEN    — leads the bundle; translates control flow to dataflow order\n")
	b.WriteString("  2. MEMORY_TOKEN  — carries the sequential memory order number\n")
	for r := 0; r < m.MaxLocals; r++ {
		fmt.Fprintf(&b, "  %d. REGISTER_TOKEN[%d]\n", 3+r, r)
	}
	fmt.Fprintf(&b, "  %d. TAIL_TOKEN    — barrier; may never pass any other token\n", 3+m.MaxLocals)
	return b.String()
}
