// Command jfserved is the JavaFlow simulation daemon: it loads the method
// population once, keeps deployments hot in a sharded LRU cache, and serves
// concurrent simulation traffic over HTTP. With -peers it becomes a
// dispatch front, sharding batch jobs across remote jfserved instances by
// consistent-hashing the method signature (falling back to the local
// scheduler when peers fail).
//
// Usage:
//
//	jfserved                       # serve :8077 with the default corpus
//	jfserved -addr :9000 -workers 8 -cache 4096
//	jfserved -addr 127.0.0.1:0     # any free port; the startup line names it
//	jfserved -gen 400              # smaller generated population (faster boot)
//	jfserved -store-dir ./results  # persist results across restarts
//	jfserved -store-dir ./results -compact-threshold 0.5   # auto-compact (sole writer)
//	jfserved -peers http://10.0.0.7:8077,http://10.0.0.8:8077
//	jfserved -store-dir ./r1 -peers ... -replicate-interval 15s  # anti-entropy replication
//	jfserved -store-dir ./r1 -peers ... -replicate-interval 1h   # push does the work, pull repairs
//
// With -replicate-interval every peer's segment log is pulled into the
// local store periodically, so each node ends up serving every warm
// result the fleet has computed — no shared filesystem needed.
// Replication also pushes: a node that commits or ingests new results
// notifies every peer of the segment positions that peer has not
// acknowledged yet (POST /v1/replicate/notify), so warm convergence is
// sub-second and the periodic pull is just the repair path — it can be
// set very long.
//
// Endpoints:
//
//	POST /v1/run      {"config":"Hetero2","method":"scimark/fft/FFT.bitreverse/1"}
//	POST /v1/batch    {"configs":["Baseline"],"summaryOnly":true}
//	POST /v1/batch?stream=ndjson    (per-job results as they complete)
//	POST /v1/batch    {"scenario":"chapter7","summaryOnly":true}   (scenario-keyed)
//	GET  /v1/configs
//	GET  /v1/methods
//	GET  /v1/scenarios  (and /v1/scenarios/{name})
//	GET  /v1/store    (and POST /v1/store/compact)
//	GET  /v1/replicate/segments  (and /v1/replicate/segment/{seq}, POST /v1/replicate/sync)
//	POST /v1/replicate/notify    (gossip receiver)
//	GET  /v1/trace/{traceID}     (cross-node assembled trace tree)
//	GET  /v1/fleet    (aggregated fleet health across -peers)
//	GET  /metrics     (?format=prometheus for the text exposition)
//	GET  /debug/traces  (and /debug/traces/{traceID} for one trace's local spans)
//	GET  /debug/events  (?subsystem=&severity=&n= — structured event journal)
//	GET  /healthz
//
// SIGQUIT dumps the recent event journal to stderr.
//
// With -debug-addr a second listener serves net/http/pprof on a separate
// loopback port, keeping profiling endpoints off the service address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/dispatch"
	"javaflow/internal/peer"
	"javaflow/internal/replicate"
	"javaflow/internal/scenario"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is jfserved over the given arguments and output streams, serving
// until ctx is cancelled. It returns the exit status: 0 after a clean
// shutdown, 1 when the node cannot start or stops with an error, and 2 on
// bad usage, which is reported before anything is bound or opened. The
// listeners are bound before the store opens, so a node that cannot bind
// leaves its store untouched.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jfserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8077", "listen address")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size")
		cacheN   = fs.Int("cache", serve.DefaultCacheCapacity, "deployment cache capacity (entries)")
		gen      = fs.Int("gen", 1580, "generated-method population size")
		seed     = fs.Int64("seed", 2014, "generated-method population seed")
		cycles   = fs.Int("maxcycles", 400_000, "default per-execution mesh-cycle timeout")
		drain    = fs.Duration("drain", 5*time.Minute, "graceful-shutdown drain window for in-flight requests")
		stDir    = fs.String("store-dir", "", "directory for the persistent result store (empty = memory-only)")
		peers    = fs.String("peers", "", "comma-separated base URLs of backend jfserved instances to dispatch batches across")
		compact  = fs.Float64("compact-threshold", 0, "auto-compact the store when its garbage ratio reaches this fraction (0 = disabled; sole-writer stores only)")
		compactI = fs.Duration("compact-interval", serve.DefaultCompactEvery, "how often the auto-compactor checks the garbage ratio")
		replInt  = fs.Duration("replicate-interval", 0, "pull new store segments from -peers this often (anti-entropy replication; 0 = disabled; requires -peers and -store-dir)")
		advert   = fs.String("advertise", "", "base URL peers reach this node at, stamped on gossip notifications (default: the -addr host, wildcards as 127.0.0.1, and the bound port)")
		debugA   = fs.String("debug-addr", "", "optional second listen address serving net/http/pprof (e.g. 127.0.0.1:6060; empty = disabled)")
		runCap   = fs.Int("run-cap", 0, "max in-flight /v1/run requests before typed 429 shedding (0 = 256)")
		batchCap = fs.Int("batch-cap", 0, "max in-flight /v1/batch requests before typed 429 shedding (0 = 4)")
		replCap  = fs.Int("replicate-cap", 0, "max in-flight /v1/replicate requests before typed 429 shedding (0 = 32)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "jfserved: "+format+"\n", args...)
		return 2
	}

	if err := validateFlags(map[string]flagBound{
		"-workers":            atLeast(*workers, 1),
		"-cache":              atLeast(*cacheN, 1),
		"-gen":                atLeast(*gen, 0),
		"-maxcycles":          atLeast(*cycles, 1),
		"-run-cap":            atLeast(*runCap, 0),
		"-batch-cap":          atLeast(*batchCap, 0),
		"-replicate-cap":      atLeast(*replCap, 0),
		"-drain":              nonNegative(*drain),
		"-compact-interval":   nonNegative(*compactI),
		"-replicate-interval": nonNegative(*replInt),
		"-compact-threshold":  {value: *compact, min: 0, max: 1},
	}); err != nil {
		return usage("%v", err)
	}
	peerList, err := peer.ParseList(strings.Split(*peers, ","))
	if err != nil {
		return usage("-peers: %v", err)
	}
	advertise, err := peer.ParseList(strings.Split(*advert, ","))
	if err == nil && len(advertise) > 1 {
		err = fmt.Errorf("bad peer URL %q (want one http://host[:port])", *advert)
	}
	if err != nil {
		return usage("-advertise: %v", err)
	}
	if *replInt > 0 && *stDir == "" {
		return usage("-replicate-interval requires -store-dir")
	}
	if *replInt > 0 && len(peerList) == 0 {
		return usage("-replicate-interval requires -peers")
	}

	// Listen first: the node's name needs the bound port, and a node that
	// cannot bind must fail before it touches its store.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "jfserved: %v\n", err)
		return 1
	}
	var st *store.Store
	// failed closes what the daemon would have owned (the store flushes
	// its write-behind appends) and reports err.
	failed := func(err error) int {
		ln.Close()
		if st != nil {
			_ = st.Close()
		}
		fmt.Fprintf(stderr, "jfserved: %v\n", err)
		return 1
	}
	var debugLn net.Listener
	if *debugA != "" {
		if debugLn, err = net.Listen("tcp", *debugA); err != nil {
			return failed(fmt.Errorf("-debug-addr: %w", err))
		}
		// net/http/pprof registers on http.DefaultServeMux; serving it on
		// a dedicated listener keeps profiling off the service address.
		debugSrv := &http.Server{Handler: http.DefaultServeMux}
		go func() { _ = debugSrv.Serve(debugLn) }() // ErrServerClosed once the deferred Close runs
		defer debugSrv.Close()
	}
	if *stDir != "" {
		if st, err = store.Open(*stDir, store.Options{}); err != nil {
			return failed(fmt.Errorf("opening store: %w", err))
		}
	}
	node := nodeURL(*addr, ln.Addr())
	if len(advertise) == 1 {
		node = advertise[0]
	}

	methods := workload.Corpus(*seed, *gen)
	// The node name on spans, events and fleet rows is the URL peers
	// reach this node at, so cross-node trace assembly and /v1/fleet
	// agree with the -peers lists everywhere else.
	metrics := serve.NewMetricsOpts(serve.MetricsOptions{Node: node})
	if st != nil {
		st.SetJournal(metrics.Journal())
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:       *workers,
		Cache:         serve.NewDeploymentCache(*cacheN),
		MaxMeshCycles: *cycles,
		Store:         st,
		Metrics:       metrics,
	})
	svc := serve.NewService(sched, sim.Configurations(), methods)
	// Bounded admission: beyond the per-class caps, requests shed with a
	// typed 429 and a Retry-After derived from observed service rates,
	// instead of queueing until the fleet collapses.
	svc.SetAdmission(admit.New(admit.Options{
		RunCap:       *runCap,
		BatchCap:     *batchCap,
		ReplicateCap: *replCap,
		Parallelism:  *workers,
		Registry:     sched.Metrics().Registry(),
		Journal:      sched.Metrics().Journal(),
	}))
	// A scenario-keyed batch sweeps the preset's selection of the methods
	// this node serves.
	svc.SetScenarios(scenario.Catalog())

	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "jfserved: "+format+"\n", args...)
	}

	replicateNote := "no replication"
	var rep *replicate.Replicator
	if *replInt > 0 {
		rep, err = replicate.New(replicate.Options{
			Store:     st,
			Peers:     peerList,
			Interval:  *replInt,
			Advertise: node,
			Logf:      logf,
			Tracer:    sched.Metrics().Tracer(),
			Registry:  sched.Metrics().Registry(),
			Journal:   sched.Metrics().Journal(),
		})
		if err != nil {
			return failed(err)
		}
		svc.SetReplicator(rep)
		replicateNote = fmt.Sprintf("replicating from %d peers every %v, gossiping as %s", len(peerList), *replInt, node)
	}

	dispatchNote := "single-node"
	if len(peerList) > 0 {
		// Fleet plane: /v1/trace/{id} and /v1/fleet fan out to the same
		// peer set dispatch and replication use.
		svc.SetFleet(serve.NewFleet(peerList, nil))
		opts := dispatch.Options{
			Peers:    peerList,
			Local:    sched,
			Tracer:   sched.Metrics().Tracer(),
			Registry: sched.Metrics().Registry(),
			Journal:  sched.Metrics().Journal(),
		}
		if rep != nil {
			opts.SyncedPeers = rep.SyncedPeers
			// A backend a probe sees return is pushed every segment
			// position it has not acknowledged, so it serves what it
			// missed warm.
			opts.OnRecovery = rep.PushTo
		}
		d, err := dispatch.New(opts)
		if err != nil {
			return failed(err)
		}
		svc.SetBatchRunner(d)
		dispatchNote = fmt.Sprintf("dispatching to %d peers", len(peerList))
	}

	// SIGQUIT dumps the recent event journal to stderr instead of the Go
	// runtime's goroutine dump — the "what just happened on this node"
	// panic button for operators without curl access to /debug/events.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer func() {
		signal.Stop(quit)
		close(quit)
	}()
	go func() {
		for range quit {
			fmt.Fprintf(stderr, "jfserved: event journal (%d events recorded):\n",
				sched.Metrics().Journal().EventCount())
			sched.Metrics().Journal().WriteText(stderr, 64)
		}
	}()

	if debugLn != nil {
		logf("pprof listening on %s", debugLn.Addr())
	}
	storeNote := "memory-only"
	if st != nil {
		storeNote = fmt.Sprintf("store %s (%d warm records)", st.Dir(), st.Len())
	}
	fmt.Fprintf(stdout, "jfserved: %d methods, %d configurations, %d workers, cache %d, %s, %s, %s — listening on %s\n",
		len(methods), len(svc.Configs()), *workers, *cacheN, storeNote, dispatchNote, replicateNote, ln.Addr())
	daemon := &serve.Daemon{
		Service:          svc,
		Store:            st,
		Drain:            *drain,
		CompactThreshold: *compact,
		CompactEvery:     *compactI,
		Replicator:       rep,
		Logf:             logf,
	}
	if err := daemon.Run(ctx, ln); err != nil {
		// The daemon has already flushed and closed the store.
		fmt.Fprintf(stderr, "jfserved: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "jfserved: shut down cleanly")
	return 0
}

// nodeURL is the base URL peers reach this node at when -advertise is not
// given: the host of -addr, with wildcard hosts mapped to loopback (good
// for single-machine fleets; multi-host fleets pass -advertise), and the
// port the listener bound, so a node on port 0 names its real port.
func nodeURL(addr string, bound net.Addr) string {
	host, _, _ := net.SplitHostPort(addr) // addr has been bound, so it parses
	switch host {
	case "", "0.0.0.0", "::":
		host = "127.0.0.1"
	}
	port := bound.(*net.TCPAddr).Port
	return "http://" + net.JoinHostPort(host, strconv.Itoa(port))
}

// flagBound pairs a numeric flag's parsed value with the closed range
// [min, max] it accepts. unit follows each number in an error: "s" for a
// duration, held in seconds.
type flagBound struct {
	value, min, max float64
	unit            string
}

func atLeast(v, min int) flagBound {
	return flagBound{value: float64(v), min: float64(min), max: math.Inf(1)}
}

func nonNegative(d time.Duration) flagBound {
	return flagBound{value: d.Seconds(), max: math.Inf(1), unit: "s"}
}

// validateFlags rejects out-of-range numeric flags with one clear error
// naming every offender, before any state (store, listeners) is touched.
func validateFlags(bounds map[string]flagBound) error {
	var bad []string
	for name, b := range bounds {
		if b.value >= b.min && b.value <= b.max {
			continue
		}
		num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) + b.unit }
		want := ">= " + num(b.min)
		if !math.IsInf(b.max, 1) {
			want = fmt.Sprintf("in [%s, %s]", num(b.min), num(b.max))
		}
		bad = append(bad, fmt.Sprintf("%s must be %s, got %s", name, want, num(b.value)))
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("invalid flags: %s", strings.Join(bad, "; "))
}
