// Benchmarks of the figures' pipelines (load, resolve, simulate), the
// substrates, an ablation sweep, and the serving stack's cache, store and
// warm-run paths. The tables themselves are pinned byte for byte by
// internal/experiments TestGoldenOutput and regenerated by cmd/jfbench.
package javaflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"javaflow"
	"javaflow/internal/experiments"
	"javaflow/internal/fabric"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

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
	ctx := experiments.NewContext()
	ctx.MaxMeshCycles = 300_000
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

// BenchmarkBatchLap measures one warm summary-only POST /v1/batch over
// the repository benchmark's lap — the first 800 corpus methods on every
// configuration, 4 800 jobs — through serve.NewHandler on a memory-only
// stack whose deployment cache is already full. bytes/op and allocs/op are
// what a batch-sweep lap leaves for the GC; CI tracks them.
func BenchmarkBatchLap(b *testing.B) {
	methods := workload.Corpus(2014, 1580)
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: 400_000})
	handler := serve.NewHandler(serve.NewService(sched, sim.Configurations(), methods))
	req := serve.BatchRequest{SummaryOnly: true}
	for _, m := range methods[:800] {
		req.Methods = append(req.Methods, m.Signature())
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("batch lap: status %d", w.Code)
		}
	}
	post() // cold: fills the deployment cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkDeployPipeline isolates the work the cache saves: the verify +
// load + resolve pipeline alone, cold versus cached. "lap" is the
// repository benchmark's lap of deployments — the first 800 corpus methods
// on every configuration, 4 800 DeployMethod calls per op — whose bytes
// and allocations per op are what a batch node's deployment cache fills
// with; CI tracks them.
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

	b.Run("lap", func(b *testing.B) {
		lap := workload.Corpus(2014, 1580)[:800]
		configs := sim.Configurations()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range configs {
				for _, m := range lap {
					if _, err := sim.DeployMethod(cfg, m); err != nil {
						var le *fabric.LoadError
						if !errors.As(err, &le) {
							b.Fatal(err)
						}
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

// BenchmarkCorpus measures building the serving corpus every daemon holds
// for its lifetime: the named methods plus 1580 generated ones.
func BenchmarkCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.Corpus(2014, 1580)
	}
}
