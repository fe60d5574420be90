// Command jfbench regenerates the dissertation's evaluation tables
// (Tables 1–28) from the reproduction's substrates.
//
// Usage:
//
//	jfbench -all                 # every table, in order
//	jfbench -table 22            # one table
//	jfbench -table 22 -gen 400   # smaller generated population (faster)
//	jfbench -ablations           # the design-space ablation sweeps
//	jfbench -scenarios           # list the scenario catalog
//	jfbench -scenario crypto     # run one scenario preset
//
// The population defaults mirror the dissertation: ~1,600 methods, two
// branch-policy executions each, six machine configurations. The engine's
// totals for the invocation are reported on stderr at exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"javaflow/internal/experiments"
	"javaflow/internal/scenario"
	"javaflow/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is jfbench over the given arguments and output streams. It returns
// the exit status: 0 on success, 1 when a computation fails and 2 on bad
// usage, which is reported before anything is computed.
func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("jfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all       = fs.Bool("all", false, "regenerate every table (1-28)")
		table     = fs.String("table", "", "comma-separated table numbers to regenerate")
		ablations = fs.Bool("ablations", false, "run the design-space ablation sweeps")
		scale     = fs.Int("scale", 2, "benchmark driver iteration scale")
		gen       = fs.Int("gen", 1580, "generated-method population size")
		seed      = fs.Int64("seed", 2014, "generated-method population seed")
		cycles    = fs.Int("maxcycles", 400_000, "per-execution mesh-cycle timeout")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size (1 = serial)")
		scenName  = fs.String("scenario", "", "run one scenario preset from the catalog (see -scenarios)")
		scenList  = fs.Bool("scenarios", false, "list the scenario catalog and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "jfbench: "+format+"\n", args...)
		return 2
	}
	failed := func(err error) int {
		fmt.Fprintf(stderr, "jfbench: %v\n", err)
		return 1
	}

	if err := validateFlags(map[string]flagBound{
		"-scale":     {*scale, 1},
		"-gen":       {*gen, 0},
		"-maxcycles": {*cycles, 1},
		"-workers":   {*workers, 1},
	}); err != nil {
		return usage("%v", err)
	}
	numbers, err := tableNumbers(*all, *table)
	if err != nil {
		return usage("%v", err)
	}

	if *scenList {
		for _, p := range scenario.Catalog() {
			fmt.Fprintf(stdout, "%-20s %s\n", p.Name, p.Description)
		}
		return 0
	}

	ctx := experiments.NewContext()
	ctx.Scale = *scale
	ctx.GenCount = *gen
	ctx.Seed = *seed
	ctx.MaxMeshCycles = *cycles
	ctx.Workers = *workers

	if *scenName != "" {
		preset, err := scenario.Lookup(*scenName)
		if err != nil {
			return usage("%v (use -scenarios to list the catalog)", err)
		}
		report, err := ctx.RunScenario(preset)
		if err != nil {
			return failed(err)
		}
		fmt.Fprint(stdout, report.Render())
		reportEngine(stderr, start)
		return 0
	}

	if !*ablations && len(numbers) == 0 {
		fs.Usage()
		return 2
	}
	if *ablations {
		tables, err := ctx.Ablations()
		if err != nil {
			return failed(err)
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t)
		}
	}
	for _, n := range numbers {
		t, err := ctx.TableByNumber(n)
		if err != nil {
			return failed(err)
		}
		fmt.Fprintln(stdout, t)
	}
	reportEngine(stderr, start)
	return 0
}

// tableNumbers resolves -all and -table into the tables to print, in
// order, checking every number before any table is computed.
func tableNumbers(all bool, list string) ([]int, error) {
	var numbers []int
	if all {
		for n := 1; n <= experiments.Tables; n++ {
			numbers = append(numbers, n)
		}
		return numbers, nil
	}
	if list == "" {
		return nil, nil
	}
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad table number %q", part)
		}
		if err := experiments.CheckTable(n); err != nil {
			return nil, err
		}
		numbers = append(numbers, n)
	}
	return numbers, nil
}

// reportEngine prints the event-driven engine core's throughput for the
// whole invocation: simulated mesh cycles per wall second, events
// simulated and queue entries dequeued for them, policy runs shared, and
// how much simulated time was fast-forwarded. Silent when no engine ran.
func reportEngine(w io.Writer, start time.Time) {
	t := sim.TotalEngineStats()
	if t.Runs == 0 {
		return
	}
	secs := time.Since(start).Seconds()
	var rate float64
	if secs > 0 {
		rate = float64(t.SimulatedMeshCycles) / secs
	}
	skipped := 0.0
	if t.SimulatedMeshCycles > 0 {
		skipped = 100 * float64(t.CyclesSkipped) / float64(t.SimulatedMeshCycles)
	}
	fmt.Fprintf(w,
		"jfbench: engine — %d runs (+%d shared by both policies), %d simulated mesh cycles (%.1fM cycles/s), %d events (%d delivered), %.1f%% of cycles skipped\n",
		t.Runs, t.PolicyRunsShared, t.SimulatedMeshCycles, rate/1e6, t.Events, t.Delivered, skipped)
}

// flagBound pairs a flag's parsed value with the smallest value it
// accepts.
type flagBound struct {
	value, min int
}

// validateFlags rejects out-of-range numeric flags with one clear error
// naming every offender, before any sweep state is built.
func validateFlags(bounds map[string]flagBound) error {
	var bad []string
	for name, b := range bounds {
		if b.value < b.min {
			bad = append(bad, fmt.Sprintf("%s must be >= %d, got %d", name, b.min, b.value))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("invalid flags: %s", strings.Join(bad, "; "))
}
