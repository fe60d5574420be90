// Command javaflow demonstrates the machine end to end: loading a method
// into the DataFlow Fabric (Figure 20), distributed address resolution
// (Figures 21–22), the token bundle (Figure 23), the heterogeneous layout
// (Figure 26), and a full per-method simulation across all configurations
// (the Figures 27–31 sample analysis).
//
// Usage:
//
//	javaflow -list                        # list available methods
//	javaflow -method nextDouble           # end-to-end sample analysis
//	javaflow -method nextDouble -config Hetero2 -demo load,resolve,bundle
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"javaflow/internal/classfile"
	"javaflow/internal/core"
	"javaflow/internal/fabric"
	"javaflow/internal/report"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available SPEC-analog methods")
		method  = flag.String("method", "nextDouble", "method name or full signature")
		cfgName = flag.String("config", "Hetero2", "configuration for the demos")
		demos   = flag.String("demo", "load,resolve,bundle,run", "comma-separated demos: load,resolve,bundle,hetero,run")
	)
	flag.Parse()

	if *list {
		for _, m := range workload.NamedMethods() {
			fmt.Printf("%-60s %4d instructions\n", m.Signature(), len(m.Code))
		}
		return
	}

	m := findMethod(*method)
	if m == nil {
		fmt.Fprintf(os.Stderr, "javaflow: no method matching %q (try -list)\n", *method)
		os.Exit(1)
	}

	cfg, ok := findConfig(*cfgName)
	if !ok {
		fmt.Fprintf(os.Stderr, "javaflow: no configuration %q\n", *cfgName)
		os.Exit(1)
	}

	for _, demo := range strings.Split(*demos, ",") {
		switch strings.TrimSpace(demo) {
		case "load":
			demoLoad(cfg, m)
		case "resolve":
			demoResolve(cfg, m)
		case "bundle":
			fmt.Println(core.DescribeTokenBundle(m))
		case "hetero":
			demoHetero()
		case "run":
			demoRun(m)
		default:
			fmt.Fprintf(os.Stderr, "javaflow: unknown demo %q\n", demo)
			os.Exit(2)
		}
	}
}

func findMethod(name string) *classfile.Method {
	for _, m := range workload.NamedMethods() {
		if m.Signature() == name || m.Name == name {
			return m
		}
	}
	return nil
}

func findConfig(name string) (sim.Config, bool) {
	for _, cfg := range sim.Configurations() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, true
		}
	}
	return sim.Config{}, false
}

// demoLoad walks the greedy self-organizing load (Figure 20).
func demoLoad(cfg sim.Config, m *classfile.Method) {
	machine := core.NewMachine(cfg)
	dep, err := machine.Deploy(m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "javaflow: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("=== Figure 20: loading a method (%s fabric) ===\n", cfg.Name)
	fmt.Println(dep.Placement.DescribeLoad())
}

// demoResolve prints the resolved dataflow (Figures 21–22).
func demoResolve(cfg sim.Config, m *classfile.Method) {
	machine := core.NewMachine(cfg)
	dep, err := machine.Deploy(m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "javaflow: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("=== Figures 21-22: DataFlow address resolution ===")
	fmt.Println(dep.DescribeResolution())
}

// demoHetero prints the Figure 26 heterogeneous row layout.
func demoHetero() {
	fmt.Println("=== Figure 26: heterogeneous DataFlow configuration (one 10-wide row) ===")
	f := fabric.NewFabric(10, fabric.PatternHetero)
	for n := 0; n < 10; n++ {
		x, y := f.Position(n)
		fmt.Printf("  node %2d (%d,%d): %s\n", n, x, y, f.Kind(n))
	}
	fmt.Println("  mix per 10 nodes: 6 arithmetic, 1 floating point, 2 storage, 1 control")
}

// demoRun executes the method on every configuration (Figure 31's
// simulation-results view).
func demoRun(m *classfile.Method) {
	fmt.Printf("=== Figure 31-style simulation results: %s ===\n", m.Signature())
	runner := &sim.Runner{}
	t := report.New("", "Config", "IPC BP-1", "IPC BP-2", "FoM", "Coverage", "Parallel>=2", "Inst/MaxNode")
	var base float64
	for _, cfg := range sim.Configurations() {
		run, err := runner.RunMethod(cfg, m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "javaflow: %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		mean := run.MeanIPC()
		if cfg.Name == "Baseline" {
			base = mean
		}
		fom := 0.0
		if base > 0 {
			fom = mean / base
		}
		ratio := float64(run.BP1.MaxNode) / float64(run.BP1.Static)
		t.Add(cfg.Name, run.BP1.IPC(), run.BP2.IPC(), report.Pct(fom),
			report.Pct(run.BP1.Coverage()), report.Pct(run.BP1.Parallelism()), ratio)
	}
	fmt.Println(t)
}
