package experiments

import (
	"context"
	"fmt"

	"javaflow/internal/fabric"
	"javaflow/internal/report"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// Ablations explore the design-space questions the dissertation's
// Enhancement section raises (Section 6.4): how sensitive is the result to
// the serial/mesh clock ratio, the mesh width, and the memory service
// time? Each sweep runs the named hot-method corpus and reports mean IPC.

// AblationSerialRatio sweeps serial clocks per mesh clock on the compact
// fabric — the fine-grained version of Compact10/4/2.
func (c *Context) AblationSerialRatio() (*report.Table, error) {
	t := report.New("Ablation A1: serial clocks per mesh clock (compact fabric, named methods)",
		"Serial/Mesh", "IPC-Mean", "FM vs drain")
	f := fabric.NewFabric(10, fabric.PatternCompact)

	ratios := []int{sim.DrainSerial, 16, 10, 8, 4, 2, 1}
	var base float64
	for _, r := range ratios {
		cfg := sim.Config{Name: fmt.Sprintf("serial=%d", r), Fabric: f, SerialPerMesh: r}
		cr, err := c.Scheduler().RunAll(context.Background(), cfg, workload.NamedMethods())
		if err != nil {
			return nil, err
		}
		mean := cr.IPCSummary().Mean
		if r == sim.DrainSerial {
			base = mean
		}
		label := fmt.Sprint(r)
		if r == sim.DrainSerial {
			label = "drain (baseline rule)"
		}
		t.Add(label, mean, report.Pct(mean/base))
	}
	return t, nil
}

// AblationMeshWidth sweeps the fabric width: narrower fabrics shorten mesh
// columns but lengthen them vertically.
func (c *Context) AblationMeshWidth() (*report.Table, error) {
	t := report.New("Ablation A2: mesh width (2 serial clocks/mesh, named methods)",
		"Width", "IPC-Mean", "FM vs width 10")
	var base float64
	widths := []int{10, 5, 8, 16, 32}
	results := make(map[int]float64)
	for _, w := range widths {
		cfg := sim.Config{
			Name:          fmt.Sprintf("width=%d", w),
			Fabric:        fabric.NewFabric(w, fabric.PatternCompact),
			SerialPerMesh: 2,
		}
		cr, err := c.Scheduler().RunAll(context.Background(), cfg, workload.NamedMethods())
		if err != nil {
			return nil, err
		}
		results[w] = cr.IPCSummary().Mean
	}
	base = results[10]
	for _, w := range []int{5, 8, 10, 16, 32} {
		t.Add(w, results[w], report.Pct(results[w]/base))
	}
	return t, nil
}

// AblationHeteroPattern compares heterogeneous row orderings: the paper's
// ratio depends on where the scarce node kinds sit in the row.
func (c *Context) AblationHeteroPattern() (*report.Table, error) {
	t := report.New("Ablation A3: heterogeneous row orderings (2 serial clocks/mesh)",
		"Pattern", "IPC-Mean", "Nodes/Inst")
	patterns := []struct {
		name string
		p    []fabric.NodeKind
	}{
		{"spread (default)", fabric.PatternHetero},
		{"grouped", []fabric.NodeKind{
			fabric.KindArith, fabric.KindArith, fabric.KindArith,
			fabric.KindArith, fabric.KindArith, fabric.KindArith,
			fabric.KindFloat, fabric.KindStorage, fabric.KindStorage,
			fabric.KindControl,
		}},
		{"storage-first", []fabric.NodeKind{
			fabric.KindStorage, fabric.KindArith, fabric.KindArith,
			fabric.KindControl, fabric.KindArith, fabric.KindStorage,
			fabric.KindArith, fabric.KindFloat, fabric.KindArith,
			fabric.KindArith,
		}},
	}
	for _, pat := range patterns {
		cfg := sim.Config{
			Name:          pat.name,
			Fabric:        fabric.NewFabric(10, pat.p),
			SerialPerMesh: 2,
		}
		cr, err := c.Scheduler().RunAll(context.Background(), cfg, workload.NamedMethods())
		if err != nil {
			return nil, err
		}
		t.Add(pat.name, cr.IPCSummary().Mean, cr.RatioSummary().Mean)
	}
	return t, nil
}

// Ablations runs every sweep.
func (c *Context) Ablations() ([]*report.Table, error) {
	funcs := []func() (*report.Table, error){
		c.AblationSerialRatio, c.AblationMeshWidth, c.AblationHeteroPattern,
		c.AblationFolding,
	}
	out := make([]*report.Table, 0, len(funcs))
	for i, f := range funcs {
		tbl, err := f()
		if err != nil {
			return nil, fmt.Errorf("ablation %d: %w", i+1, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// AblationFolding measures the Section 6.4 folding enhancement upper bound:
// pure data-transfer instructions (register reads, stack moves — the
// "Locals+Stack" 26-54% of Table 2) eliminated after linkage. Effective IPC
// counts only the remaining real work per cycle.
func (c *Context) AblationFolding() (*report.Table, error) {
	t := report.New("Ablation A4: folding enhancement (Hetero2, named methods)",
		"Mode", "Total mesh cycles", "Cycles ratio")
	hetero := configNamed("Hetero2")
	loader := &fabric.Loader{Fabric: hetero.Fabric}
	var plainCycles, foldCycles int
	for _, m := range workload.NamedMethods() {
		p, err := loader.Load(m)
		if err != nil {
			continue
		}
		r, err := fabric.Resolve(p)
		if err != nil {
			return nil, err
		}
		plain := sim.NewEngine(hetero, r, sim.BP1)
		pr, err := plain.Run()
		if err != nil {
			return nil, err
		}
		folded := sim.NewEngine(hetero, r, sim.BP1)
		folded.EnableFolding()
		fr, err := folded.Run()
		if err != nil {
			return nil, err
		}
		plainCycles += pr.MeshCycles
		foldCycles += fr.MeshCycles
	}
	t.Add("unfolded", plainCycles, "100%")
	t.Add("folded", foldCycles,
		report.Pct(float64(foldCycles)/float64(plainCycles)))
	return t, nil
}
