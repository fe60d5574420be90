package experiments

import (
	"fmt"

	"javaflow/internal/dataflow"
	"javaflow/internal/fabric"
	"javaflow/internal/report"
	"javaflow/internal/sim"
	"javaflow/internal/stats"
)

func (c *Context) filter1Rows() ([]dataflow.MethodRow, error) {
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	return dataflow.Select(rows, dataflow.Filter1, nil), nil
}

// Table09 reproduces "General Data Flow Analysis – Filter 1".
func (c *Context) Table09() (*report.Table, error) {
	rows, err := c.filter1Rows()
	if err != nil {
		return nil, err
	}
	sum := dataflow.Summarize(rows)
	t := report.New("Table 9: General Data Flow Analysis - Filter 1 (reproduction)",
		"Quantity", "Mean", "StdDev", "Median", "Max", "Min")
	t.AddSummary("Static Inst", sum.StaticInst)
	t.AddSummary("Local Regs", sum.Registers)
	t.AddSummary("Stack", sum.Stack)
	t.AddSummary("Back Merge", sum.BackMerge)
	return t, nil
}

// Table10 reproduces "DataFlow FanOut and Arc Analysis - Filter 1".
func (c *Context) Table10() (*report.Table, error) {
	rows, err := c.filter1Rows()
	if err != nil {
		return nil, err
	}
	sum := dataflow.Summarize(rows)
	t := report.New("Table 10: DataFlow FanOut and Arc Analysis - Filter 1 (reproduction)",
		"Quantity", "Mean", "StdDev", "Median", "Max", "Min")
	t.AddSummary("FanOut Avg", sum.FanOutAvg)
	t.AddSummary("FanOut Max", sum.FanOutMax)
	t.AddSummary("Arc Avg", sum.ArcAvg)
	t.AddSummary("Arc Max", sum.ArcMax)
	return t, nil
}

// Table11 reproduces "DataFlow Resolution Queue Analysis – Filter 1" by
// running the fabric resolver over the Filter-1 corpus.
func (c *Context) Table11() (*report.Table, error) {
	loader := &fabric.Loader{Fabric: fabric.NewFabric(10, fabric.PatternCompact)}
	var maxQ []float64
	for _, m := range c.Corpus() {
		if !dataflow.InFilter1(len(m.Code)) {
			continue
		}
		p, err := loader.Load(m)
		if err != nil {
			continue // GPP-executed methods
		}
		r, err := fabric.Resolve(p)
		if err != nil {
			return nil, err
		}
		maxQ = append(maxQ, float64(r.MaxQUp))
	}
	sum := stats.Summarize(maxQ)
	t := report.New("Table 11: DataFlow Resolution Queue Analysis - Filter 1 (reproduction)",
		"Quantity", "Mean", "StdDev", "Median", "Max", "Min")
	t.AddSummary("Max Q Up", sum)
	return t, nil
}

// Table12 reproduces "DataFlow Merge Analysis - Filter 1".
func (c *Context) Table12() (*report.Table, error) {
	rows, err := c.filter1Rows()
	if err != nil {
		return nil, err
	}
	sum := dataflow.Summarize(rows)
	t := report.New("Table 12: DataFlow Merge Analysis - Filter 1 (reproduction)",
		"Quantity", "Mean", "StdDev", "Median", "Max", "Min")
	t.AddSummary("Merges", sum.Merges)
	return t, nil
}

// Table13 reproduces "DataFlow Jump Forward Analysis - Filter 1".
func (c *Context) Table13() (*report.Table, error) {
	rows, err := c.filter1Rows()
	if err != nil {
		return nil, err
	}
	sum := dataflow.Summarize(rows)
	t := report.New("Table 13: DataFlow Jump Forward Analysis - Filter 1 (reproduction)",
		"Quantity", "Mean", "StdDev", "Median", "Max", "Min")
	t.AddSummary("Forward Jumps", sum.FwdJumps)
	t.AddSummary("Avg. Length", sum.FwdLenAvg)
	t.AddSummary("Max Length", sum.FwdLenMax)
	return t, nil
}

// Table14 reproduces "DataFlow Jump Backward Analysis - Filter 1".
func (c *Context) Table14() (*report.Table, error) {
	rows, err := c.filter1Rows()
	if err != nil {
		return nil, err
	}
	sum := dataflow.Summarize(rows)
	t := report.New("Table 14: DataFlow Jump Backward Analysis - Filter 1 (reproduction)",
		"Quantity", "Mean", "StdDev", "Median", "Max", "Min")
	t.AddSummary("Back Jumps", sum.BackJumps)
	t.AddSummary("Avg. Length", sum.BackLenAvg)
	t.AddSummary("Max Length", sum.BackLenMax)
	return t, nil
}

// Table15 reproduces "Benchmark Configurations".
func (c *Context) Table15() (*report.Table, error) {
	t := report.New("Table 15: Benchmark Configurations", "ID", "Description")
	for i, cfg := range sim.Configurations() {
		t.Add(fmt.Sprintf("%d - %s", i, cfg.Name), cfg.Description)
	}
	return t, nil
}

// Table16 reproduces "Filters on Methods".
func (c *Context) Table16() (*report.Table, error) {
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	f1 := dataflow.Select(rows, dataflow.Filter1, nil)
	f2 := dataflow.Select(rows, dataflow.Filter2, c.HotSet())
	t := report.New("Table 16: Filters on Methods (reproduction)",
		"Filter", "Selection", "# Executions", "# Methods")
	t.Add("Filter All", "All Methods", 2*len(rows), len(rows))
	t.Add("Filter 1", "10 < Inst < 1000", 2*len(f1), len(f1))
	t.Add("Filter 2", "Top 90% (Dyn), 10 < Inst < 1000", 2*len(f2), len(f2))
	return t, nil
}

// Table17 reproduces "Execution Cycles per Instruction" (model constants).
func (c *Context) Table17() (*report.Table, error) {
	t := report.New("Table 17: Execution Cycles per Instruction (model constants)",
		"Instruction Groups", "Mesh Cycles - Execution")
	t.Add("Move", sim.CyclesMove)
	t.Add("Floating point arithmetic", sim.CyclesFloat)
	t.Add("Integer-Float conversion", sim.CyclesConvert)
	t.Add("Special, Logical, Register, Memory", sim.CyclesDefault)
	t.Add("(service) Memory subsystem round trip", sim.MemoryServiceCycles)
	t.Add("(service) GPP call/service round trip", sim.GPPServiceCycles)
	return t, nil
}

// Table18 reproduces "Execution Coverage – All Methods".
func (c *Context) Table18() (*report.Table, error) {
	base, err := c.Baseline()
	if err != nil {
		return nil, err
	}
	bp1, bp2 := base.CoverageSummary()
	t := report.New("Table 18: Execution Coverage - All Methods (reproduction)",
		"Case", "BP-1", "BP-2")
	t.Add("Inst Exe / Inst Static", report.Pct(bp1), report.Pct(bp2))
	return t, nil
}

// Table19 reproduces "Ratio of Instructions to Max Node" per configuration.
func (c *Context) Table19() (*report.Table, error) {
	t := report.New("Table 19: Ratio of Instructions to Max Node (reproduction)",
		"Case", "MaxNode/Inst")
	for _, cfg := range sim.Configurations() {
		cr, err := c.SimResults(cfg)
		if err != nil {
			return nil, err
		}
		t.Add(cfg.Name, cr.RatioSummary().Mean)
	}
	return t, nil
}

// Table20 reproduces "Heterogeneous Addressing Detail – Filter 1".
func (c *Context) Table20() (*report.Table, error) {
	cr, err := c.SimResults(configNamed("Hetero2"))
	if err != nil {
		return nil, err
	}
	f1 := cr.FilterRuns(func(mr sim.MethodRun) bool {
		return dataflow.InFilter1(mr.BP1.Static)
	})
	sum := f1.RatioSummary()
	t := report.New("Table 20: Heterogeneous Addressing Detail - Filter 1 (reproduction)",
		"Case", "Inst/MaxNode")
	t.Add("Average", sum.Mean)
	t.Add("Median", sum.Median)
	t.Add("Std Dev", sum.StdDev)
	t.Add("Max", sum.Max)
	t.Add("Min", sum.Min)
	return t, nil
}

// Table21 reproduces "Raw IPC Data - All Methods".
func (c *Context) Table21() (*report.Table, error) {
	t := report.New("Table 21: Raw IPC Data - All Methods (reproduction)",
		"Case", "IPC-Mean", "IPC-StdDev", "IPC-Median", "IPC-Max", "IPC-Min")
	for _, cfg := range sim.Configurations() {
		cr, err := c.SimResults(cfg)
		if err != nil {
			return nil, err
		}
		s := cr.IPCSummary()
		t.Add(cfg.Name, s.Mean, s.StdDev, s.Median, s.Max, s.Min)
	}
	return t, nil
}

// Table22 reproduces "Figure of Merit – Filter All".
func (c *Context) Table22() (*report.Table, error) {
	base, err := c.Baseline()
	if err != nil {
		return nil, err
	}
	t := report.New("Table 22: Figure of Merit - All Methods (reproduction)",
		"Case", "IPC-Mean", "FM", "FM StdDev")
	for _, cfg := range sim.Configurations() {
		cr, err := c.SimResults(cfg)
		if err != nil {
			return nil, err
		}
		fom := cr.FoMAgainst(base)
		t.Add(cfg.Name, cr.IPCSummary().Mean, fom.Mean, fom.StdDev)
	}
	return t, nil
}

// Table23 reproduces "Correlations with FM Hetero2 – Filter All".
func (c *Context) Table23() (*report.Table, error) {
	base, err := c.Baseline()
	if err != nil {
		return nil, err
	}
	cr, err := c.SimResults(configNamed("Hetero2"))
	if err != nil {
		return nil, err
	}
	fom := cr.PerMethodFoM(base)

	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	rowBySig := make(map[string]dataflow.MethodRow, len(rows))
	for _, r := range rows {
		rowBySig[r.Signature] = r
	}
	var fms, totalI, execI, maxNode, backJ []float64
	for _, run := range cr.Runs {
		f, ok := fom[run.Signature]
		if !ok {
			continue
		}
		row, ok := rowBySig[run.Signature]
		if !ok {
			continue
		}
		fms = append(fms, f)
		totalI = append(totalI, float64(row.StaticInst))
		execI = append(execI, float64(run.BP1.Fired+run.BP2.Fired)/2)
		maxNode = append(maxNode, float64(run.BP1.MaxNode))
		backJ = append(backJ, float64(row.BackJumps))
	}
	t := report.New("Table 23: Correlations with FM Hetero2 - Filter All (reproduction)",
		"Factor", "Correlation")
	t.Add("Total I", stats.Correlation(totalI, fms))
	t.Add("Executed I", stats.Correlation(execI, fms))
	t.Add("Max Node", stats.Correlation(maxNode, fms))
	t.Add("Back Jumps", stats.Correlation(backJ, fms))
	return t, nil
}

// filteredFoM renders the Table 24/25 layout for a run filter.
func (c *Context) filteredFoM(title string, keep func(sim.MethodRun) bool) (*report.Table, error) {
	base, err := c.Baseline()
	if err != nil {
		return nil, err
	}
	baseF := base.FilterRuns(keep)
	t := report.New(title, "Case", "IPC-Mean", "IPC-Median", "FM", "FM StdDev")
	for _, cfg := range sim.Configurations() {
		cr, err := c.SimResults(cfg)
		if err != nil {
			return nil, err
		}
		crF := cr.FilterRuns(keep)
		s := crF.IPCSummary()
		fom := crF.FoMAgainst(baseF)
		t.Add(cfg.Name, s.Mean, s.Median, fom.Mean, fom.StdDev)
	}
	return t, nil
}

// Table24 reproduces "All Data - Filter 1".
func (c *Context) Table24() (*report.Table, error) {
	return c.filteredFoM("Table 24: All Data - Filter 1 (reproduction)",
		func(mr sim.MethodRun) bool { return dataflow.InFilter1(mr.BP1.Static) })
}

// Table25 reproduces "All Data - Filter 2".
func (c *Context) Table25() (*report.Table, error) {
	hot := c.HotSet()
	return c.filteredFoM("Table 25: All Data - Filter 2 (reproduction)",
		func(mr sim.MethodRun) bool {
			return dataflow.InFilter1(mr.BP1.Static) && hot[mr.Signature]
		})
}

// Table26 reproduces "Parallelism - All Methods".
func (c *Context) Table26() (*report.Table, error) {
	t := report.New("Table 26: Parallelism - All Methods (reproduction)",
		"Case", "% Mesh Cycles with >= 2 Instructions Executing")
	for _, cfg := range sim.Configurations() {
		cr, err := c.SimResults(cfg)
		if err != nil {
			return nil, err
		}
		t.Add(cfg.Name, report.Pct(cr.ParallelismMean()))
	}
	return t, nil
}

// topFourFoM renders Tables 27/28: per named hot method, the FoM on every
// configuration.
func (c *Context) topFourFoM(era, title string) (*report.Table, error) {
	base, err := c.Baseline()
	if err != nil {
		return nil, err
	}
	perCfg := make(map[string]map[string]float64)
	ratios := make(map[string]float64)
	var cfgNames []string
	for _, cfg := range sim.Configurations() {
		cr, err := c.SimResults(cfg)
		if err != nil {
			return nil, err
		}
		perCfg[cfg.Name] = cr.PerMethodFoM(base)
		cfgNames = append(cfgNames, cfg.Name)
		if cfg.Name == "Hetero2" {
			for _, run := range cr.Runs {
				if run.BP1.Static > 0 {
					ratios[run.Signature] = float64(run.BP1.MaxNode)
				}
			}
		}
	}

	header := append([]string{"Method", "Total I", "Hetero N"}, cfgNames...)
	t := report.New(title, header...)
	var fomSums = make([]float64, len(cfgNames))
	var fomCount int
	seen := make(map[string]bool)
	for _, s := range c.Suites() {
		if s.Era != era {
			continue
		}
		for _, m := range s.AllMethods() {
			sig := m.Signature()
			if seen[sig] {
				continue // classes shared between suites (e.g. Random)
			}
			seen[sig] = true
			if _, ok := perCfg["Hetero2"][sig]; !ok {
				continue // excluded from the fabric (switch methods etc.)
			}
			cells := []interface{}{sig, len(m.Code), int(ratios[sig])}
			for i, name := range cfgNames {
				f := perCfg[name][sig]
				cells = append(cells, report.Pct(f))
				fomSums[i] += f
			}
			fomCount++
			t.Add(cells...)
		}
	}
	if fomCount > 0 {
		cells := []interface{}{"Mean", "", ""}
		for i := range cfgNames {
			cells = append(cells, report.Pct(fomSums[i]/float64(fomCount)))
		}
		t.Add(cells...)
	}
	return t, nil
}

// Table27 reproduces "Figure of Merit on Top 4 SpecJvm2008 Benchmarks".
func (c *Context) Table27() (*report.Table, error) {
	return c.topFourFoM("SpecJvm2008",
		"Table 27: Figure of Merit on Top SpecJvm2008-analog Methods (reproduction)")
}

// Table28 reproduces "Figure of Merit on Top 4 SpecJvm98 Benchmarks".
func (c *Context) Table28() (*report.Table, error) {
	return c.topFourFoM("SpecJvm98",
		"Table 28: Figure of Merit on Top SpecJvm98-analog Methods (reproduction)")
}

// Tables is the number of the dissertation's evaluation tables.
const Tables = 28

// CheckTable reports whether TableByNumber knows table n, without
// computing anything.
func CheckTable(n int) error {
	if n < 1 || n > Tables {
		return fmt.Errorf("experiments: no table %d (valid: 1-%d)", n, Tables)
	}
	return nil
}

// TableByNumber dispatches 1..Tables.
func (c *Context) TableByNumber(n int) (*report.Table, error) {
	funcs := []func() (*report.Table, error){
		c.Table01, c.Table02, c.Table03, c.Table04, c.Table05, c.Table06,
		c.Table07, c.Table08, c.Table09, c.Table10, c.Table11, c.Table12,
		c.Table13, c.Table14, c.Table15, c.Table16, c.Table17, c.Table18,
		c.Table19, c.Table20, c.Table21, c.Table22, c.Table23, c.Table24,
		c.Table25, c.Table26, c.Table27, c.Table28,
	}
	if err := CheckTable(n); err != nil {
		return nil, err
	}
	return funcs[n-1]()
}
