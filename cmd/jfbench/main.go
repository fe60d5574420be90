// Command jfbench regenerates the dissertation's evaluation tables
// (Tables 1–28) from the reproduction's substrates.
//
// Usage:
//
//	jfbench -all                 # every table, in order
//	jfbench -table 22            # one table
//	jfbench -table 22 -gen 400   # smaller generated population (faster)
//	jfbench -all -store-dir ./results   # reuse prior runs across invocations
//	jfbench -all -store-dir ./results -peers http://10.0.0.7:8077 -pull
//	                             # pull the fleet's warm results first,
//	                             # compute only what nobody has
//	jfbench -fleet http://10.0.0.7:8077 # render the fleet-health table
//	jfbench -scenarios           # list the scenario catalog
//	jfbench -scenario crypto            # run one scenario preset
//
// The population defaults mirror the dissertation: ~1,600 methods, two
// branch-policy executions each, six machine configurations. With
// -store-dir, completed MethodRuns are persisted and reused by later
// invocations (and by jfserved pointed at the same directory); the
// cold/warm split is reported on stderr at exit.
package main

import (
	"context"
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
	"javaflow/internal/peer"
	"javaflow/internal/replicate"
	"javaflow/internal/scenario"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

func main() {
	start := time.Now()
	var (
		all       = flag.Bool("all", false, "regenerate every table (1-28)")
		table     = flag.String("table", "", "comma-separated table numbers to regenerate")
		ablations = flag.Bool("ablations", false, "run the design-space ablation sweeps")
		scale     = flag.Int("scale", 2, "benchmark driver iteration scale")
		gen       = flag.Int("gen", 1580, "generated-method population size")
		seed      = flag.Int64("seed", 2014, "generated-method population seed")
		cycles    = flag.Int("maxcycles", 400_000, "per-execution mesh-cycle timeout")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size (1 = serial)")
		stDir     = flag.String("store-dir", "", "persistent result store directory (empty = recompute everything)")
		peers     = flag.String("peers", "", "comma-separated jfserved base URLs to dispatch sweeps across (must serve the same -gen/-seed corpus)")
		pull      = flag.Bool("pull", false, "pull the -peers' warm results into -store-dir (one anti-entropy round), then sweep locally over the warmed store instead of dispatching; the exit report splits pulled vs computed")
		scenName  = flag.String("scenario", "", "run one scenario preset from the catalog (see -scenarios)")
		scenList  = flag.Bool("scenarios", false, "list the scenario catalog and exit")
		fleetURL  = flag.String("fleet", "", "fetch <base URL>/v1/fleet from a running jfserved and render the aggregated fleet-health table, then exit")
	)
	flag.Parse()

	if err := validateFlags(map[string]flagBound{
		"-scale":     {*scale, 1},
		"-gen":       {*gen, 0},
		"-maxcycles": {*cycles, 1},
		"-workers":   {*workers, 1},
	}); err != nil {
		fmt.Fprintf(os.Stderr, "jfbench: %v\n", err)
		os.Exit(2)
	}

	if *fleetURL != "" {
		if err := renderFleet(os.Stdout, *fleetURL); err != nil {
			fmt.Fprintf(os.Stderr, "jfbench: fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ctx := experiments.NewContext()
	ctx.Scale = *scale
	ctx.GenCount = *gen
	ctx.Seed = *seed
	ctx.MaxMeshCycles = *cycles
	ctx.Workers = *workers
	peerList, err := peer.ParseList(strings.Split(*peers, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "jfbench: -peers: %v\n", err)
		os.Exit(2)
	}
	// -pull uses the peers as replication sources and sweeps locally over
	// the warmed store; without it they are dispatch backends (a
	// dispatched job runs remotely, so pulling first would be pointless).
	if !*pull {
		ctx.Peers = peerList
	}

	// fail closes the store (flushing queued writes) before exiting
	// non-zero; os.Exit skips deferred calls.
	fail := func(code int, format string, args ...any) {
		_ = ctx.Close()
		if format != "" {
			fmt.Fprintf(os.Stderr, format, args...)
		}
		os.Exit(code)
	}

	if *stDir != "" {
		if err := ctx.OpenStore(*stDir); err != nil {
			fail(1, "jfbench: %v\n", err)
		}
	}

	if *pull {
		if ctx.Store() == nil || len(peerList) == 0 {
			fail(2, "jfbench: -pull requires -store-dir and -peers\n")
		}
		rep, err := replicate.New(replicate.Options{Store: ctx.Store(), Peers: peerList})
		if err != nil {
			fail(1, "jfbench: %v\n", err)
		}
		pullCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		err = rep.SyncNow(pullCtx)
		cancel()
		if err != nil {
			// A down peer is not fatal: the sweep still runs, computing
			// (or dispatching) whatever could not be pulled.
			fmt.Fprintf(os.Stderr, "jfbench: pull: %v\n", err)
		}
	}

	// finish prints the invocation's stderr reports (silent for what did
	// not happen) and closes the store.
	finish := func() {
		reportStore(ctx)
		reportDispatch(ctx)
		reportTraces(ctx)
		reportEngine(start)
		if err := ctx.Close(); err != nil {
			fail(1, "jfbench: closing store: %v\n", err)
		}
	}

	if *scenList {
		for _, p := range scenario.Catalog() {
			fmt.Printf("%-20s %s\n", p.Name, p.Description)
		}
		if err := ctx.Close(); err != nil {
			fail(1, "jfbench: closing store: %v\n", err)
		}
		return
	}

	if *scenName != "" {
		preset, err := scenario.Lookup(*scenName)
		if err != nil {
			fail(2, "jfbench: %v (use -scenarios to list the catalog)\n", err)
		}
		report, err := ctx.RunScenario(preset)
		if err != nil {
			fail(1, "jfbench: %v\n", err)
		}
		fmt.Print(report.Render())
		finish()
		return
	}

	if *ablations {
		tables, err := ctx.Ablations()
		if err != nil {
			fail(1, "jfbench: %v\n", err)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		if !*all && *table == "" {
			finish()
			return
		}
	}

	if !*all && *table == "" {
		flag.Usage()
		fail(2, "")
	}

	var numbers []int
	if *all {
		for n := 1; n <= 28; n++ {
			numbers = append(numbers, n)
		}
	} else {
		for _, part := range strings.Split(*table, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fail(2, "jfbench: bad table number %q\n", part)
			}
			numbers = append(numbers, n)
		}
	}

	for _, n := range numbers {
		t, err := ctx.TableByNumber(n)
		if err != nil {
			fail(1, "jfbench: %v\n", err)
		}
		fmt.Println(t)
	}
	finish()
}

// reportEngine prints the event-driven engine core's throughput for the
// whole invocation: simulated mesh cycles per wall second, events
// simulated and queue entries dequeued for them, policy runs shared, and
// how much simulated time was fast-forwarded. Silent when
// every result came from the store or remote peers (no local engine runs).
func reportEngine(start time.Time) {
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
	fmt.Fprintf(os.Stderr,
		"jfbench: engine — %d runs (+%d shared by both policies), %d simulated mesh cycles (%.1fM cycles/s), %d events (%d delivered), %.1f%% of cycles skipped\n",
		t.Runs, t.PolicyRunsShared, t.SimulatedMeshCycles, rate/1e6, t.Events, t.Delivered, skipped)
}

// reportDispatch prints the per-backend job split of a -peers run, so a
// 1-vs-N comparison can see how the sweep sharded.
func reportDispatch(ctx *experiments.Context) {
	st := ctx.DispatchStats()
	if st == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "jfbench: dispatch — %d retries, %d local fallbacks\n",
		st.Retries, st.LocalFallbacks)
	for _, b := range st.Backends {
		fmt.Fprintf(os.Stderr, "jfbench: dispatch backend %s — %d jobs, %d errors, %.1f%% ring share\n",
			b.Name, b.Jobs, b.Errors, 100*b.RingShare)
	}
}

// reportTraces prints the invocation's span count and its slowest spans,
// so a slow sweep points at its bottleneck without a second run. Silent
// when nothing was traced.
func reportTraces(ctx *experiments.Context) {
	tr := ctx.Scheduler().Metrics().Tracer()
	if tr.SpanCount() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "jfbench: traces — %d spans recorded\n", tr.SpanCount())
	for _, sp := range tr.Slowest(3) {
		fmt.Fprintf(os.Stderr, "jfbench: trace %s span %s %s — %.1fms\n",
			sp.TraceID, sp.SpanID, sp.Name, float64(sp.DurationNS)/1e6)
	}
}

// reportStore prints the cold/warm split of a store-backed run: how many
// MethodRuns were served from prior invocations versus executed fresh.
func reportStore(ctx *experiments.Context) {
	st := ctx.Store()
	if st == nil {
		return
	}
	stats := st.Stats()
	total := stats.RunHits + stats.RunMisses
	if total == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"jfbench: store %s — %d/%d runs warm (%.1f%%), %d cold, %d records persisted\n",
		st.Dir(), stats.RunHits, total, 100*float64(stats.RunHits)/float64(total),
		stats.RunMisses, stats.Records)
	if stats.IngestedRecords > 0 || stats.IngestSkipped > 0 {
		fmt.Fprintf(os.Stderr,
			"jfbench: replicate — %d records pulled from peers (%d offered but already present), %d runs computed this invocation\n",
			stats.IngestedRecords, stats.IngestSkipped, stats.RunMisses)
	}
	if stats.PutErrors > 0 {
		fmt.Fprintf(os.Stderr,
			"jfbench: warning: %d store writes failed; results may not be reusable (ctx.Close reports the first error)\n",
			stats.PutErrors)
	}
}

// renderFleet fetches base's /v1/fleet document and renders it as the
// operator-facing fleet-health table: one row per node, then the
// lossless fleet-wide merge (counters summed, latency histograms merged
// bucket-by-bucket, so the percentiles are true union percentiles).
func renderFleet(w io.Writer, base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var snap serve.FleetSnapshot
	if err := peer.GetJSON(ctx, peer.NewClient(1, 10*time.Second), peer.Normalize(base)+"/v1/fleet", &snap); err != nil {
		return err
	}

	fmt.Fprintf(w, "%-28s %-5s %10s %10s %8s %8s %8s %10s\n",
		"NODE", "UP", "REQUESTS", "JOBS", "ERRORS", "INFLGT", "EVENTS", "P99(ms)")
	for _, n := range snap.Nodes {
		if !n.Up || n.Metrics == nil {
			reason := n.Err
			if reason == "" {
				reason = "no metrics"
			}
			fmt.Fprintf(w, "%-28s %-5s %s\n", n.Node, "down", reason)
			continue
		}
		m := n.Metrics
		p99 := "-"
		if m.JobLatency != nil && m.JobLatency.Count > 0 {
			p99 = fmt.Sprintf("%.1f", float64(m.JobLatency.Quantile(0.99))/1e6)
		}
		fmt.Fprintf(w, "%-28s %-5s %10d %10d %8d %8d %8d %10s\n",
			n.Node, "up", m.Requests, m.Jobs, m.JobErrors, m.InFlight, m.Events, p99)
	}
	partial := ""
	if snap.Partial {
		partial = " (partial: at least one node did not answer)"
	}
	fmt.Fprintf(w, "fleet: %d/%d nodes up, %d requests, %d jobs (%d errors), p50 %.1fms p95 %.1fms p99 %.1fms%s\n",
		snap.NodesUp, snap.NodesTotal, snap.Fleet.Requests, snap.Fleet.Jobs, snap.Fleet.JobErrors,
		snap.Fleet.P50LatencyMS, snap.Fleet.P95LatencyMS, snap.Fleet.P99LatencyMS, partial)
	return nil
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
