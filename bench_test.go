// Benchmarks regenerating every table and figure of the dissertation's
// evaluation, one bench per table. Run a single table with e.g.
//
//	go test -bench 'BenchmarkTable22$' -benchtime 1x
//
// Each iteration rebuilds the table from scratch on a reduced population
// (the full population is the jfbench default); results print via -v or the
// jfbench command.
package javaflow_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"javaflow"
	"javaflow/internal/experiments"
	"javaflow/internal/fabric"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// benchContext caches one shared experiment context across benches so that
// `go test -bench .` does not recompute the simulation sweep 28 times.
var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

func sharedContext() *experiments.Context {
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext()
		benchCtx.Scale = 1
		benchCtx.GenCount = 300
		benchCtx.MaxMeshCycles = 300_000
	})
	return benchCtx
}

func benchTable(b *testing.B, n int) {
	b.Helper()
	ctx := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := ctx.TableByNumber(n)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("table %d empty", n)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tbl.String())
		}
	}
}

func BenchmarkTable01(b *testing.B) { benchTable(b, 1) }
func BenchmarkTable02(b *testing.B) { benchTable(b, 2) }
func BenchmarkTable03(b *testing.B) { benchTable(b, 3) }
func BenchmarkTable04(b *testing.B) { benchTable(b, 4) }
func BenchmarkTable05(b *testing.B) { benchTable(b, 5) }
func BenchmarkTable06(b *testing.B) { benchTable(b, 6) }
func BenchmarkTable07(b *testing.B) { benchTable(b, 7) }
func BenchmarkTable08(b *testing.B) { benchTable(b, 8) }
func BenchmarkTable09(b *testing.B) { benchTable(b, 9) }
func BenchmarkTable10(b *testing.B) { benchTable(b, 10) }
func BenchmarkTable11(b *testing.B) { benchTable(b, 11) }
func BenchmarkTable12(b *testing.B) { benchTable(b, 12) }
func BenchmarkTable13(b *testing.B) { benchTable(b, 13) }
func BenchmarkTable14(b *testing.B) { benchTable(b, 14) }
func BenchmarkTable15(b *testing.B) { benchTable(b, 15) }
func BenchmarkTable16(b *testing.B) { benchTable(b, 16) }
func BenchmarkTable17(b *testing.B) { benchTable(b, 17) }
func BenchmarkTable18(b *testing.B) { benchTable(b, 18) }
func BenchmarkTable19(b *testing.B) { benchTable(b, 19) }
func BenchmarkTable20(b *testing.B) { benchTable(b, 20) }
func BenchmarkTable21(b *testing.B) { benchTable(b, 21) }
func BenchmarkTable22(b *testing.B) { benchTable(b, 22) }
func BenchmarkTable23(b *testing.B) { benchTable(b, 23) }
func BenchmarkTable24(b *testing.B) { benchTable(b, 24) }
func BenchmarkTable25(b *testing.B) { benchTable(b, 25) }
func BenchmarkTable26(b *testing.B) { benchTable(b, 26) }
func BenchmarkTable27(b *testing.B) { benchTable(b, 27) }
func BenchmarkTable28(b *testing.B) { benchTable(b, 28) }

// ---- Figure demonstrations ----

// BenchmarkFigure20LoadMethod measures the greedy self-organizing load
// (Figure 20) of the hottest SciMark method into the heterogeneous fabric.
func BenchmarkFigure20LoadMethod(b *testing.B) {
	m := namedMethod(b, "scimark/utils/Random.nextDouble/0")
	loader := &fabric.Loader{Fabric: fabric.NewFabric(10, fabric.PatternHetero)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loader.Load(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure22Resolution measures distributed address resolution.
func BenchmarkFigure22Resolution(b *testing.B) {
	m := namedMethod(b, "scimark/fft/FFT.transform_internal/2")
	loader := &fabric.Loader{Fabric: fabric.NewFabric(10, fabric.PatternCompact)}
	p, err := loader.Load(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fabric.Resolve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure31NextDouble measures the full per-method simulation used
// for the Figures 27–31 sample analysis.
func BenchmarkFigure31NextDouble(b *testing.B) {
	m := namedMethod(b, "scimark/utils/Random.nextDouble/0")
	runner := &sim.Runner{}
	cfg := heteroConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunMethod(cfg, m); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Substrate microbenchmarks ----

// BenchmarkInterpreterNextDouble measures the baseline JVM substrate.
func BenchmarkInterpreterNextDouble(b *testing.B) {
	vm := javaflow.NewJVM()
	suite := suiteByName(b, "scimark.monte_carlo")
	if err := suite.Register(vm); err != nil {
		b.Fatal(err)
	}
	rnd, err := workload.NewRandom(vm, 42)
	if err != nil {
		b.Fatal(err)
	}
	m := namedMethod(b, "scimark/utils/Random.nextDouble/0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Invoke(m, rnd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentFabric measures the goroutine-per-node protocol.
func BenchmarkConcurrentFabric(b *testing.B) {
	m := namedMethod(b, "scimark/utils/Random.nextDouble/0")
	conc := &fabric.ConcurrentFabric{Fabric: fabric.NewFabric(10, fabric.PatternHetero)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := conc.LoadAndResolve(m); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers ----

func namedMethod(b *testing.B, sig string) *javaflow.Method {
	b.Helper()
	for _, m := range workload.NamedMethods() {
		if m.Signature() == sig {
			return m
		}
	}
	b.Fatalf("no method %s", sig)
	return nil
}

func suiteByName(b *testing.B, name string) *workload.Suite {
	b.Helper()
	for _, s := range workload.AllSuites() {
		if s.Name == name {
			return s
		}
	}
	b.Fatalf("no suite %s", name)
	return nil
}

func heteroConfig(b *testing.B) sim.Config {
	b.Helper()
	for _, cfg := range sim.Configurations() {
		if cfg.Name == "Hetero2" {
			return cfg
		}
	}
	b.Fatal("no Hetero2")
	return sim.Config{}
}

// BenchmarkAblationSerialRatio measures the serial-clock design-space sweep
// (the fine-grained Compact10/4/2 ladder).
func BenchmarkAblationSerialRatio(b *testing.B) {
	ctx := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := ctx.AblationSerialRatio()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkDeploymentCacheSweep measures the deployment cache's effect on
// repeated population sweeps: "uncached" deploys every method from scratch
// each iteration (the seed's per-run pipeline), "cached" serves deployments
// from a warmed serve.DeploymentCache. The delta is pure Figure 20 +
// Figure 22 work amortized away.
func BenchmarkDeploymentCacheSweep(b *testing.B) {
	methods := workload.NamedMethods()
	cfg := heteroConfig(b)
	const maxCycles = 200_000

	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh cache every iteration keeps each sweep cold.
			sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: maxCycles})
			if _, err := sched.RunAll(context.Background(), cfg, methods); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: maxCycles})
		if _, err := sched.RunAll(context.Background(), cfg, methods); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sched.RunAll(context.Background(), cfg, methods); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreSweep measures the persistent result store against the
// in-memory path: "cold" pays execution plus write-behind persistence,
// "warm" is a fresh process (empty LRU) answering the whole sweep from
// disk-backed records without touching the engine.
func BenchmarkStoreSweep(b *testing.B) {
	methods := workload.NamedMethods()
	cfg := heteroConfig(b)
	const maxCycles = 200_000
	dir := b.TempDir()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: maxCycles, Store: st})
			if _, err := sched.RunAll(context.Background(), cfg, methods); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	seed, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: maxCycles, Store: seed})
	if _, err := sched.RunAll(context.Background(), cfg, methods); err != nil {
		b.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			// A fresh scheduler + cache per iteration models a restarted
			// process whose only warmth is the store.
			sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: maxCycles, Store: st})
			if _, err := sched.RunAll(context.Background(), cfg, methods); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkEngineRun pits the event-driven engine core against the
// reference clock-by-clock loop on the slowest named workload method (by
// simulated mesh cycles on the tightest serial budget). All sub-benches
// execute the identical resolved deployment; the differential tests prove
// the results byte-identical, so the delta is pure loop mechanics. "event"
// is the path the service runs — one engine, Reset per run, as the pooled
// Runner.RunResolved does — and "fresh" the same loop on a new engine per
// run, so the gap between the two is what reuse buys. CI guards the event
// core at ≥5x fewer ns/op and allocs/op than the reference. "lap" is the
// repository benchmark's lap in-process — 800 corpus methods on every
// configuration through Runner.RunResolved, deployments resolved outside
// the timer — reporting ns and dequeued queue entries per job; tracked,
// not gated.
func BenchmarkEngineRun(b *testing.B) {
	cfg := benchConfig(b, "Compact2")
	const maxCycles = 400_000

	var slowRes *fabric.Resolution
	slowCycles := 0
	slowSig := ""
	for _, m := range workload.NamedMethods() {
		res, err := sim.DeployMethod(cfg, m)
		if err != nil {
			continue
		}
		eng := sim.NewEngine(cfg, res, sim.BP1)
		eng.SetMaxCycles(maxCycles)
		r, err := eng.Run()
		if err != nil || r.TimedOut {
			continue
		}
		if r.MeshCycles > slowCycles {
			slowCycles, slowRes, slowSig = r.MeshCycles, res, m.Signature()
		}
	}
	if slowRes == nil {
		b.Fatal("no runnable named method")
	}
	b.Logf("slowest method: %s (%d mesh cycles on %s)", slowSig, slowCycles, cfg.Name)

	b.Run("event", func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEngine(cfg, slowRes, sim.BP1)
		for i := 0; i < b.N; i++ {
			eng.Reset(cfg, slowRes, sim.BP1)
			eng.SetMaxCycles(maxCycles)
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(cfg, slowRes, sim.BP1)
			eng.SetMaxCycles(maxCycles)
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(cfg, slowRes, sim.BP1)
			eng.SetMaxCycles(maxCycles)
			if _, err := eng.RunReference(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lap", func(b *testing.B) {
		type job struct {
			cfg sim.Config
			res *fabric.Resolution
		}
		var jobs []job
		for _, c := range sim.Configurations() {
			for _, m := range workload.Corpus(2014, 1580)[:800] {
				if res, err := sim.DeployMethod(c, m); err == nil {
					jobs = append(jobs, job{c, res})
				}
			}
		}
		runner := &sim.Runner{MaxMeshCycles: maxCycles}
		b.ReportAllocs()
		b.ResetTimer()
		before := sim.TotalEngineStats()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := runner.RunResolved(j.cfg, j.res); err != nil {
					b.Fatal(err)
				}
			}
		}
		n := float64(b.N * len(jobs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
		b.ReportMetric(float64(sim.TotalEngineStats().Delivered-before.Delivered)/n, "dequeued/job")
	})
}

// BenchmarkWarmRun measures what a store hit costs inside the daemon's own
// handler: POST /v1/run through serve.NewHandler on a store-backed stack
// whose every (method, configuration) result is already persisted, so the
// engine never runs. ns/op and allocs/op include the httptest request and
// recorder (constant across commits).
func BenchmarkWarmRun(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: 200_000, Store: st})
	handler := serve.NewHandler(serve.NewService(sched, sim.Configurations(), workload.NamedMethods()))
	var bodies [][]byte
	for _, cfg := range sim.Configurations() {
		for _, m := range workload.NamedMethods() {
			bodies = append(bodies, []byte(`{"config":"`+cfg.Name+`","method":"`+m.Signature()+`"}`))
		}
	}
	post := func(body []byte) int {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		return w.Code
	}
	warm := bodies[:0]
	for _, body := range bodies {
		if post(body) == http.StatusOK { // fabric rejections (422) are not store hits
			warm = append(warm, body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(warm[i%len(warm)]); code != http.StatusOK {
			b.Fatalf("warm run: status %d", code)
		}
	}
}

func benchConfig(b *testing.B, name string) sim.Config {
	b.Helper()
	for _, cfg := range sim.Configurations() {
		if cfg.Name == name {
			return cfg
		}
	}
	b.Fatalf("no config %s", name)
	return sim.Config{}
}

// BenchmarkDeployPipeline isolates the work the cache saves: the verify +
// load + resolve pipeline alone, cold versus cached.
func BenchmarkDeployPipeline(b *testing.B) {
	methods := workload.NamedMethods()
	cfg := heteroConfig(b)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range methods {
				if _, err := sim.DeployMethod(cfg, m); err != nil {
					var le *fabric.LoadError
					if !errors.As(err, &le) {
						b.Fatal(err)
					}
				}
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		cache := serve.NewDeploymentCache(0)
		for _, m := range methods {
			cache.ResolveMethod(cfg, m) // nolint:errcheck — warmup; rejects are cached too
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range methods {
				if _, err := cache.ResolveMethod(cfg, m); err != nil {
					var le *fabric.LoadError
					if !errors.As(err, &le) {
						b.Fatal(err)
					}
				}
			}
		}
	})
}
