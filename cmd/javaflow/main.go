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
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A demo prints one figure for method m on configuration cfg.
type demo func(w io.Writer, cfg sim.Config, m *classfile.Method) error

var demos = map[string]demo{
	"load":    demoLoad,
	"resolve": demoResolve,
	"bundle":  demoBundle,
	"hetero":  demoHetero,
	"run":     demoRun,
}

// run is javaflow over the given arguments and output streams. It returns
// the exit status: 0 on success, 2 on bad usage and 1 on an unknown method
// or configuration or a failed demo. Every argument is checked before
// anything is printed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("javaflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list available SPEC-analog methods")
		method    = fs.String("method", "nextDouble", "method name or full signature")
		cfgName   = fs.String("config", "Hetero2", "configuration for the demos")
		demoNames = fs.String("demo", "load,resolve,bundle,run", "comma-separated demos: load,resolve,bundle,hetero,run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, m := range workload.NamedMethods() {
			fmt.Fprintf(stdout, "%-60s %4d instructions\n", m.Signature(), len(m.Code))
		}
		return 0
	}

	var steps []demo
	for _, name := range strings.Split(*demoNames, ",") {
		d, ok := demos[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(stderr, "javaflow: unknown demo %q\n", name)
			return 2
		}
		steps = append(steps, d)
	}
	m := findMethod(*method)
	if m == nil {
		fmt.Fprintf(stderr, "javaflow: no method matching %q (try -list)\n", *method)
		return 1
	}
	cfg, ok := findConfig(*cfgName)
	if !ok {
		fmt.Fprintf(stderr, "javaflow: no configuration %q\n", *cfgName)
		return 1
	}

	for _, d := range steps {
		if err := d(stdout, cfg, m); err != nil {
			fmt.Fprintf(stderr, "javaflow: %v\n", err)
			return 1
		}
	}
	return 0
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
func demoLoad(w io.Writer, cfg sim.Config, m *classfile.Method) error {
	dep, err := core.NewMachine(cfg).Deploy(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== Figure 20: loading a method (%s fabric) ===\n", cfg.Name)
	fmt.Fprintln(w, dep.Placement.DescribeLoad())
	return nil
}

// demoResolve prints the resolved dataflow (Figures 21–22).
func demoResolve(w io.Writer, cfg sim.Config, m *classfile.Method) error {
	dep, err := core.NewMachine(cfg).Deploy(m)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figures 21-22: DataFlow address resolution ===")
	fmt.Fprintln(w, dep.DescribeResolution())
	return nil
}

// demoBundle prints the method's token bundle (Figure 23).
func demoBundle(w io.Writer, _ sim.Config, m *classfile.Method) error {
	fmt.Fprintln(w, core.DescribeTokenBundle(m))
	return nil
}

// demoHetero prints the Figure 26 heterogeneous row layout.
func demoHetero(w io.Writer, _ sim.Config, _ *classfile.Method) error {
	fmt.Fprintln(w, "=== Figure 26: heterogeneous DataFlow configuration (one 10-wide row) ===")
	f := fabric.NewFabric(10, fabric.PatternHetero)
	for n := 0; n < 10; n++ {
		x, y := f.Position(n)
		fmt.Fprintf(w, "  node %2d (%d,%d): %s\n", n, x, y, f.Kind(n))
	}
	fmt.Fprintln(w, "  mix per 10 nodes: 6 arithmetic, 1 floating point, 2 storage, 1 control")
	return nil
}

// demoRun executes the method on every configuration (Figure 31's
// simulation-results view).
func demoRun(w io.Writer, _ sim.Config, m *classfile.Method) error {
	fmt.Fprintf(w, "=== Figure 31-style simulation results: %s ===\n", m.Signature())
	runner := &sim.Runner{}
	t := report.New("", "Config", "IPC BP-1", "IPC BP-2", "FoM", "Coverage", "Parallel>=2", "Inst/MaxNode")
	var base float64
	for _, cfg := range sim.Configurations() {
		run, err := runner.RunMethod(cfg, m)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
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
	fmt.Fprintln(w, t)
	return nil
}
