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
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"runtime"
	"sort"
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
	var (
		addr     = flag.String("addr", ":8077", "listen address")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size")
		cacheN   = flag.Int("cache", serve.DefaultCacheCapacity, "deployment cache capacity (entries)")
		gen      = flag.Int("gen", 1580, "generated-method population size")
		seed     = flag.Int64("seed", 2014, "generated-method population seed")
		cycles   = flag.Int("maxcycles", 400_000, "default per-execution mesh-cycle timeout")
		drain    = flag.Duration("drain", 5*time.Minute, "graceful-shutdown drain window for in-flight requests")
		stDir    = flag.String("store-dir", "", "directory for the persistent result store (empty = memory-only)")
		peers    = flag.String("peers", "", "comma-separated base URLs of backend jfserved instances to dispatch batches across")
		compact  = flag.Float64("compact-threshold", 0, "auto-compact the store when its garbage ratio reaches this fraction (0 = disabled; sole-writer stores only)")
		compactI = flag.Duration("compact-interval", serve.DefaultCompactEvery, "how often the auto-compactor checks the garbage ratio")
		replInt  = flag.Duration("replicate-interval", 0, "pull new store segments from -peers this often (anti-entropy replication; 0 = disabled; requires -peers and -store-dir)")
		advert   = flag.String("advertise", "", "base URL peers reach this node at, stamped on gossip notifications (default derived from -addr)")
		debugA   = flag.String("debug-addr", "", "optional second listen address serving net/http/pprof (e.g. 127.0.0.1:6060; empty = disabled)")
		runCap   = flag.Int("run-cap", 0, "max in-flight /v1/run requests before typed 429 shedding (0 = 256)")
		batchCap = flag.Int("batch-cap", 0, "max in-flight /v1/batch requests before typed 429 shedding (0 = 4)")
		replCap  = flag.Int("replicate-cap", 0, "max in-flight /v1/replicate requests before typed 429 shedding (0 = 32)")
	)
	flag.Parse()

	if err := validateFlags(map[string]flagBound{
		"-workers":       {*workers, 1},
		"-cache":         {*cacheN, 1},
		"-gen":           {*gen, 0},
		"-maxcycles":     {*cycles, 1},
		"-run-cap":       {*runCap, 0},
		"-batch-cap":     {*batchCap, 0},
		"-replicate-cap": {*replCap, 0},
	}); err != nil {
		fmt.Fprintf(os.Stderr, "jfserved: %v\n", err)
		os.Exit(2)
	}
	peerList, err := peer.ParseList(strings.Split(*peers, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "jfserved: -peers: %v\n", err)
		os.Exit(2)
	}

	var st *store.Store
	if *stDir != "" {
		st, err = store.Open(*stDir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "jfserved: opening store: %v\n", err)
			os.Exit(1)
		}
	}
	// fatal closes the store (flushing write-behind appends) before
	// exiting non-zero; os.Exit skips deferred calls.
	fatal := func(format string, args ...any) {
		if st != nil {
			_ = st.Close()
		}
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}

	methods := workload.Corpus(*seed, *gen)
	// The node name on spans, events and fleet rows is the URL peers
	// reach this node at, so cross-node trace assembly and /v1/fleet
	// agree with the -peers lists everywhere else.
	metrics := serve.NewMetricsOpts(serve.MetricsOptions{Node: advertiseURL(*advert, *addr)})
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
		fmt.Printf("jfserved: "+format+"\n", args...)
	}

	replicateNote := "no replication"
	var rep *replicate.Replicator
	if *replInt > 0 {
		if st == nil {
			fatal("jfserved: -replicate-interval requires -store-dir\n")
		}
		if len(peerList) == 0 {
			fatal("jfserved: -replicate-interval requires -peers\n")
		}
		advertise := advertiseURL(*advert, *addr)
		if advertise == "" {
			fatal("jfserved: cannot derive a gossip advertise URL from -addr %q; pass -advertise\n", *addr)
		}
		rep, err = replicate.New(replicate.Options{
			Store:     st,
			Peers:     peerList,
			Interval:  *replInt,
			Advertise: advertise,
			Logf:      logf,
			Tracer:    sched.Metrics().Tracer(),
			Registry:  sched.Metrics().Registry(),
			Journal:   sched.Metrics().Journal(),
		})
		if err != nil {
			fatal("jfserved: %v\n", err)
		}
		svc.SetReplicator(rep)
		replicateNote = fmt.Sprintf("replicating from %d peers every %v, gossiping as %s", len(peerList), *replInt, advertise)
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
			fatal("jfserved: %v\n", err)
		}
		svc.SetBatchRunner(d)
		probeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		up := d.HealthyPeers(probeCtx)
		cancel()
		dispatchNote = fmt.Sprintf("dispatching to %d peers (%d healthy now)", len(d.Backends()), up)
	}

	daemon := &serve.Daemon{
		Addr:             *addr,
		Service:          svc,
		Store:            st,
		Drain:            *drain,
		CompactThreshold: *compact,
		CompactEvery:     *compactI,
		Replicator:       rep,
		Logf:             logf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the recent event journal to stderr instead of the Go
	// runtime's goroutine dump — the "what just happened on this node"
	// panic button for operators without curl access to /debug/events.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintf(os.Stderr, "jfserved: event journal (%d events recorded):\n",
				sched.Metrics().Journal().EventCount())
			sched.Metrics().Journal().WriteText(os.Stderr, 64)
		}
	}()

	if *debugA != "" {
		// net/http/pprof registers on http.DefaultServeMux; serving it on
		// a dedicated listener keeps profiling off the service address.
		debugSrv := &http.Server{Addr: *debugA, Handler: http.DefaultServeMux}
		go func() {
			logf("pprof listening on %s", *debugA)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logf("pprof server: %v", err)
			}
		}()
		defer debugSrv.Close()
	}

	storeNote := "memory-only"
	if st != nil {
		storeNote = fmt.Sprintf("store %s (%d warm records)", st.Dir(), st.Len())
	}
	err = daemon.Run(ctx, func(bound net.Addr) {
		fmt.Printf("jfserved: %d methods, %d configurations, %d workers, cache %d, %s, %s, %s — listening on %s\n",
			len(methods), len(svc.Configs()), *workers, *cacheN, storeNote, dispatchNote, replicateNote, bound)
	})
	if err != nil {
		// The daemon has already flushed and closed the store.
		fmt.Fprintf(os.Stderr, "jfserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("jfserved: shut down cleanly")
}

// advertiseURL resolves the base URL stamped on this node's gossip
// notifications: -advertise verbatim when given, otherwise derived from
// the listen address with wildcard hosts mapped to loopback (good for
// single-machine fleets; multi-host fleets should pass -advertise).
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" {
		return ""
	}
	switch host {
	case "", "0.0.0.0", "::", "[::]":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// flagBound pairs a flag's parsed value with the smallest value it
// accepts.
type flagBound struct {
	value, min int
}

// validateFlags rejects out-of-range numeric flags with one clear error
// naming every offender, before any state (store, listeners) is touched.
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
