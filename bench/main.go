//go:build linux

// Command bench is the repository benchmark: a lap-based closed-loop load
// harness for real jfserved processes (workloads run-cold, run-warm,
// batch-sweep, fleet-dispatch) plus an in-process traced replay that
// splits one job's cost by layer. See README.md in this directory.
//
// Usage, from the repository root:
//
//	go run -C bench . -workload run-warm                  # end-to-end metrics
//	go run -C bench . -workload run-warm -trace 1         # per-layer metrics
//	go run -C bench . -selfcheck                          # noise self-check, whole suite
//
// The last line of standard output is one JSON object {correct,
// attempted, failed, metrics}; everything else goes to standard error and
// to bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metric declares one reported number. BENCHMARK.json repeats these
// tables; TestBenchmarkJSONMatches keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression.
	bound float64
	// exact marks a count that must repeat bit for bit between runs of
	// the same commit and seed.
	exact bool
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
}

var perLayer = []metric{
	{name: "workload.corpus_ms", unit: "ms", better: "lower"},
	{name: "fabric.load_us", unit: "us", better: "lower"},
	{name: "fabric.resolve_us", unit: "us", better: "lower"},
	{name: "fabric.rejected_jobs", unit: "count", better: "lower", exact: true},
	{name: "sim.engine_us_per_job", unit: "us", better: "lower"},
	{name: "sim.engine_allocs_per_job", unit: "count", better: "lower"},
	{name: "sim.engine_bytes_per_job", unit: "B", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.events_per_job", unit: "count", better: "lower", exact: true},
	{name: "sim.mesh_cycles_per_job", unit: "count", better: "lower", exact: true},
	{name: "sim.cycles_skipped_share", unit: "share", better: "higher", exact: true},
	{name: "sim.engine_runs", unit: "count", better: "lower", exact: true},
	{name: "sim.codec_encode_ns", unit: "ns", better: "lower"},
	{name: "sim.codec_decode_ns", unit: "ns", better: "lower"},
	{name: "sim.codec_bytes_per_run", unit: "B", better: "lower"},
	{name: "store.put_us", unit: "us", better: "lower"},
	{name: "store.lookup_us", unit: "us", better: "lower"},
	{name: "store.deploy_io_us", unit: "us", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.disk_bytes_per_record", unit: "B", better: "lower"},
	{name: "store.ingest_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "store.run_hits", unit: "count", better: "higher", exact: true},
	{name: "store.run_misses", unit: "count", better: "lower", exact: true},
	{name: "replicate.sync_records_per_s", unit: "1/s", better: "higher"},
	{name: "replicate.manifest_ms", unit: "ms", better: "lower"},
	{name: "serve.cache_hit_ns", unit: "ns", better: "lower"},
	{name: "serve.cache_hit_share", unit: "share", better: "higher", exact: true},
	{name: "serve.scheduler_self_us", unit: "us", better: "lower"},
	{name: "serve.service_self_us", unit: "us", better: "lower"},
	{name: "serve.http_self_us", unit: "us", better: "lower"},
	{name: "serve.http_warm_us", unit: "us", better: "lower"},
	{name: "serve.http_allocs_per_req", unit: "count", better: "lower"},
	{name: "serve.response_bytes_per_job", unit: "B", better: "lower"},
	{name: "serve.loopback_rtt_us", unit: "us", better: "lower"},
	{name: "serve.batch_first_lap_s", unit: "s", better: "lower"},
	{name: "admit.admit_ns", unit: "ns", better: "lower"},
	{name: "admit.rejected", unit: "count", better: "lower", exact: true},
	{name: "obs.span_ns", unit: "ns", better: "lower"},
	{name: "obs.span_allocs", unit: "count", better: "lower"},
	{name: "obs.histvec_record_ns", unit: "ns", better: "lower"},
	{name: "obs.histvec_allocs", unit: "count", better: "lower"},
	{name: "dispatch.hop_us", unit: "us", better: "lower"},
	{name: "dispatch.fill_jobs_per_s", unit: "jobs/s", better: "higher"},
	{name: "dispatch.backend_share_max", unit: "share", better: "lower", exact: true},
	{name: "dispatch.retries", unit: "count", better: "lower", exact: true},
	{name: "dispatch.local_fallbacks", unit: "count", better: "lower", exact: true},
	{name: "dispatch.suspensions", unit: "count", better: "lower", exact: true},
	{name: "experiments.tables_all_s", unit: "s", better: "lower"},
	{name: "client.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "client.lap_spread", unit: "share", better: "lower"},
	{name: "client.generator_cpu_share", unit: "share", better: "lower"},
	{name: "trace.coverage", unit: "share", better: "higher"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// The sizes of a run. They are constants, not flags: the committed
// baseline, the golden digests and every later before/after are only
// comparable at one size. TestSmoke shrinks them through the options
// struct.
const (
	corpusGen     = 1580 // jfserved -gen: 1603 methods with the hand-written ones
	lapMethods    = 800  // a lap is the first lapMethods corpus methods x every configuration
	traceJobs     = 1500 // jobs the traced replay sends through every boundary
	minLaps       = 12   // timed laps behind every median, however slow the box
	setupStarts   = 9    // timed daemon-set starts behind setup_s
	selfcheckRuns = 3    // runs per set and workload under -selfcheck
)

func main() {
	opts := options{gen: corpusGen, lapMethods: lapMethods, traceJobs: traceJobs, minLaps: minLaps, setupStarts: setupStarts}
	var workload string
	var trace int
	var selfcheck bool
	flag.StringVar(&workload, "workload", "", "workload to run: run-cold, run-warm, batch-sweep or fleet-dispatch")
	flag.Int64Var(&opts.seed, "seed", 2014, "seed of the job order")
	flag.Float64Var(&opts.seconds, "seconds", 24, "how long the timed laps of a run last (a run always finishes its lap, and at least 12)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics, tracing off")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the whole suite as two interleaved sets and compare their medians to the bounds")
	flag.Parse()
	opts.trace = trace != 0

	if err := realMain(opts, workload, selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(opts options, workload string, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if opts.seconds < 0 {
		return fmt.Errorf("-seconds must be >= 0")
	}
	plan, err := pinGenerator()
	if err != nil {
		return err
	}
	at, err := prepare()
	if err != nil {
		return err
	}
	at.plan = plan
	if selfcheck {
		return runSelfcheck(opts, at)
	}
	s, ok := specByName(workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want run-cold, run-warm, batch-sweep or fleet-dispatch)", workload)
	}
	rep, err := runOnce(opts, s, at)
	if err != nil {
		return err
	}
	printSummary(rep, opts.trace)
	return printResult(rep, opts.trace)
}

// runOnce performs one run of one workload with the daemons killed and the
// temp dir removed on every way out, including SIGINT and SIGTERM, gates
// the result and writes the report (and the spans of a traced run) to
// bench/out.
func runOnce(opts options, s spec, at site) (*report, error) {
	h, err := newHarness(opts, s, at)
	if err != nil {
		return nil, err
	}
	defer h.close()
	defer h.closeOnSignal()()

	rep, spans, err := h.measure()
	if err != nil {
		return nil, err
	}
	if err := checkMetrics(rep, opts.trace); err != nil {
		return nil, err
	}
	if opts.trace {
		// A warning, not a failure: separately replayed passes differ by
		// +-10 us a job on a quiet box and by far more in a noisy minute.
		if c := rep.PerLayer["trace.coverage"]; c < 0.9 || c > 1.1 {
			fmt.Fprintf(os.Stderr, "bench: warning: %s: trace.coverage %.3f is outside 0.9-1.1; distrust this run's self times\n", s.name, c)
		}
		if err := writeJSON(filepath.Join(at.outDir, "trace."+s.name+".json"), spans); err != nil {
			return nil, err
		}
	}
	return rep, writeJSON(filepath.Join(at.outDir, s.name+".json"), rep)
}

// measure runs the workload and, when tracing, adds the replay's and
// `jfbench -all`'s per-layer metrics to the report.
func (h *harness) measure() (*report, []span, error) {
	rep, err := h.run()
	if err != nil || !h.opts.trace {
		return rep, nil, err
	}
	layers, spans, err := h.replay()
	if err != nil {
		return nil, nil, err
	}
	for name, v := range layers {
		rep.PerLayer[name] = v
	}
	secs, sum, err := h.tablesAll()
	if err != nil {
		return nil, nil, err
	}
	rep.PerLayer["experiments.tables_all_s"] = secs
	if g, err := h.loadGolden(); err != nil {
		return nil, nil, err
	} else if g != nil && sum != g.TablesSHA256 {
		return nil, nil, fmt.Errorf("jfbench -all stdout digest %s, golden %s", sum, g.TablesSHA256)
	}
	return rep, spans, nil
}

// checkMetrics requires every declared metric to be present and finite:
// a metric that silently went missing would read as "no regression".
func checkMetrics(rep *report, trace bool) error {
	check := func(decl []metric, got map[string]float64) error {
		for _, m := range decl {
			v, ok := got[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is missing or not finite (%v)", rep.Workload, m.name, v)
			}
		}
		return nil
	}
	if err := check(endToEnd, rep.EndToEnd); err != nil {
		return err
	}
	if !trace {
		return nil
	}
	return check(perLayer, rep.PerLayer)
}

// closeOnSignal cleans up and exits when the harness itself is
// interrupted; the returned stop ends the watch.
func (h *harness) closeOnSignal() (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			h.close()
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// printResult writes the contract line: the last line of standard output.
func printResult(rep *report, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decl, got := endToEnd, rep.EndToEnd
	if trace {
		decl, got = perLayer, rep.PerLayer
	}
	metrics := make(map[string]value, len(decl))
	for _, m := range decl {
		metrics[m.name] = value{Value: got[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": rep.OpsAttempted,
		"failed":    rep.OpsFailed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// printSummary is the human-readable view, on standard error.
func printSummary(rep *report, trace bool) {
	fmt.Fprintf(os.Stderr, "%s seed %d: %d laps x %d jobs, %d setup samples, digest %.12s, %d fabric rejections per lap\n",
		rep.Workload, rep.Seed, len(rep.Laps), rep.LapJobs, len(rep.SetupS), rep.Digest, rep.Rejected)
	for _, m := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", m.name, rep.EndToEnd[m.name], m.unit)
	}
	names := make([]string, 0, len(rep.PerLayer))
	for name := range rep.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", name, rep.PerLayer[name], units[name])
	}
}
