//go:build linux

package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// spec describes one workload. All four share the seed-ordered job list;
// they differ in which daemons serve it and what those daemons already
// hold when the timed laps start.
type spec struct {
	name string
	why  string
	// fleet runs two backends behind a dispatch front instead of one node.
	fleet bool
	// store gives every daemon a -store-dir.
	store bool
	// freshPerLap starts a new daemon on an empty store for every lap, so
	// every lap is cold.
	freshPerLap bool
	// batch makes a lap one POST /v1/batch instead of per-job /v1/run.
	batch bool
}

var specs = []spec{
	{
		name: "run-cold", store: true, freshPerLap: true,
		why: "fresh daemon and empty store per lap: every /v1/run pays deploy, two engine runs, codec, store append and HTTP",
	},
	{
		name: "run-warm", store: true,
		why: "every /v1/run is a store hit on a recovered store: HTTP/JSON, admit, obs and store reads are the whole cost, engine idle",
	},
	{
		name: "batch-sweep", batch: true,
		why: "memory-only /v1/batch laps: pooled engine on a 100%-hit deployment cache, no store, HTTP amortised over the lap",
	},
	{
		name: "fleet-dispatch", store: true, fleet: true,
		why: "warm /v1/run through a dispatch front to two backends: the ring + peer-RPC hop is the cost, engine idle",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// report is everything one run of one workload measured.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Gen          int                `json:"gen"`
	LapJobs      int                `json:"lap_jobs"`
	Env          envInfo            `json:"env"`
	SetupS       []float64          `json:"setup_s_samples"`
	PrimeS       float64            `json:"prime_lap_s"`
	Laps         []lap              `json:"laps"`
	PeakRSSMB    []float64          `json:"peak_rss_mb_samples"`
	Digest       string             `json:"digest"`
	Rejected     int                `json:"rejected_422_per_lap"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

// daemonSpecs lists the [addr, flags...] of the workload's daemons,
// backends before the front.
func (s spec) daemonSpecs(dirs []string) [][]string {
	node := func(addr, dir string, extra ...string) []string {
		out := []string{addr}
		if s.store {
			out = append(out, "-store-dir", dir)
		}
		return append(out, extra...)
	}
	if !s.fleet {
		return [][]string{node(frontAddr, dirs[0])}
	}
	return [][]string{
		node(backend1Addr, dirs[1]),
		node(backend2Addr, dirs[2]),
		node(frontAddr, dirs[0], "-peers", "http://"+backend1Addr+",http://"+backend2Addr),
	}
}

// storeDirs makes the (up to three) store directories of a daemon set.
func (h *harness) storeDirs() ([]string, error) {
	dirs := make([]string, 3)
	for i := range dirs {
		d, err := h.mkdir("store")
		if err != nil {
			return nil, err
		}
		dirs[i] = d
	}
	return dirs, nil
}

// run measures one workload. The flow is the same for all four:
//
//   - start the daemon set setupStarts times, timing each start (setup_s);
//     a workload with persistent stores primes them during the first start
//     so the later starts recover filled stores, a memory-only one primes
//     the last start (its lap 0);
//   - run equal-work laps until opts.seconds have passed (at least
//     minLaps), scraping /metrics before and after for exact counts;
//   - check every lap's digest against the first and against the
//     in-process reference.
//
// run-cold differs only in that every lap gets its own start on an empty
// store, so laps double as setup samples and nothing is primed.
func (h *harness) run() (*report, error) {
	s := h.spec
	rep := &report{
		Workload: s.name, Seed: h.opts.seed, Gen: h.opts.gen, LapJobs: len(h.jl.jobs),
		Env: h.env,
	}
	budget := time.Duration(h.opts.seconds * float64(time.Second))
	// counted holds the exact counts of the latest lap. Every lap does the
	// same work, but the first lap after a restart also refills in-process
	// caches, so the steady-state numbers are the last lap's.
	counted := counts{}
	selfCPU := 0.0
	lapAndCount := func(ds []*daemon) error {
		before, err := h.scrapeCounts(ds)
		if err != nil {
			return err
		}
		cpu0 := selfCPUSeconds()
		l, err := h.runLap("http://"+frontAddr, ds, s.batch)
		selfCPU += selfCPUSeconds() - cpu0
		rep.Laps = append(rep.Laps, l)
		if err != nil {
			return fmt.Errorf("lap %d: %w", len(rep.Laps)-1, err)
		}
		if l.Digest != rep.Laps[0].Digest {
			return fmt.Errorf("lap %d digest %s differs from lap 0 digest %s", len(rep.Laps)-1, l.Digest, rep.Laps[0].Digest)
		}
		after, err := h.scrapeCounts(ds)
		if err != nil {
			return err
		}
		for name, v := range after {
			counted[name] = v - before[name]
		}
		// Guards, on the totals since the daemons started: a "gain" from
		// shedding load or from falling back to local execution is not one.
		for _, name := range []string{"admit.rejected", "dispatch.retries", "dispatch.localFallbacks", "dispatch.suspensions"} {
			if after[name] != 0 {
				return fmt.Errorf("%s = %v after lap %d, want 0", name, after[name], len(rep.Laps)-1)
			}
		}
		return nil
	}
	more := func(start time.Time) bool {
		return len(rep.Laps) < h.opts.minLaps || time.Since(start) < budget
	}

	if s.freshPerLap {
		for start := time.Now(); more(start); {
			dirs, err := h.storeDirs()
			if err != nil {
				return nil, err
			}
			ds, setup, err := h.startSet(s.daemonSpecs(dirs))
			if err != nil {
				return nil, err
			}
			rep.SetupS = append(rep.SetupS, setup)
			if err := lapAndCount(ds); err != nil {
				return nil, err
			}
			if err := h.recordRSS(rep, ds); err != nil {
				return nil, err
			}
			if err := h.stopSet(ds); err != nil {
				return nil, err
			}
			for _, d := range dirs {
				_ = os.RemoveAll(d) // best effort; the temp dir is removed at exit anyway
			}
		}
	} else {
		dirs, err := h.storeDirs()
		if err != nil {
			return nil, err
		}
		var ds []*daemon
		for i := 0; i < h.opts.setupStarts; i++ {
			var setup float64
			if ds, setup, err = h.startSet(s.daemonSpecs(dirs)); err != nil {
				return nil, err
			}
			rep.SetupS = append(rep.SetupS, setup)
			last := i == h.opts.setupStarts-1
			if (s.store && i == 0) || (!s.store && last) {
				if rep.PrimeS, err = h.prime(); err != nil {
					return nil, err
				}
			}
			if !last {
				if err := h.stopSet(ds); err != nil {
					return nil, err
				}
			}
		}
		for start := time.Now(); more(start); {
			if err := lapAndCount(ds); err != nil {
				return nil, err
			}
		}
		if err := h.recordRSS(rep, ds); err != nil {
			return nil, err
		}
		if err := h.stopSet(ds); err != nil {
			return nil, err
		}
	}
	h.finish(rep, counted, selfCPU)
	return rep, h.gate(rep)
}

// prime sends the lap's jobs once, untimed by the lap clock, as one POST
// /v1/batch: it fills the stores of a warm workload and is lap 0 of the
// memory-only one.
func (h *harness) prime() (float64, error) {
	start := time.Now()
	r := h.post("http://"+frontAddr+"/v1/batch", h.jl.batch)
	if r.status != 200 {
		return 0, fmt.Errorf("priming batch answered status %d", r.status)
	}
	return time.Since(start).Seconds(), nil
}

func (h *harness) recordRSS(rep *report, ds []*daemon) error {
	mb, err := peakRSSMB(ds)
	if err != nil {
		return err
	}
	rep.PeakRSSMB = append(rep.PeakRSSMB, mb)
	return nil
}

// finish derives the metrics from the raw laps: every timed end-to-end
// metric is a median over laps.
func (h *harness) finish(rep *report, counted counts, selfCPU float64) {
	jobs := float64(rep.LapJobs)
	var rate, p50, p99, cpu, wall []float64
	daemonCPU := 0.0
	for _, l := range rep.Laps {
		rate = append(rate, jobs/l.WallS)
		p50 = append(p50, l.P50MS)
		p99 = append(p99, l.P99MS)
		cpu = append(cpu, l.DaemonCPUS*1000/jobs)
		wall = append(wall, l.WallS)
		daemonCPU += l.DaemonCPUS
	}
	rep.Digest = rep.Laps[0].Digest
	rep.Rejected = rep.Laps[0].Rejected
	rep.OpsAttempted = len(rep.Laps)
	if !h.spec.batch {
		rep.OpsAttempted *= rep.LapJobs
	}
	rep.EndToEnd = map[string]float64{
		"setup_s":        median(rep.SetupS),
		"jobs_per_s":     median(rate),
		"latency_p50_ms": median(p50),
		"cpu_ms_per_job": median(cpu),
		"peak_rss_mb":    median(rep.PeakRSSMB),
	}

	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	layer := map[string]float64{
		"workload.corpus_ms":         h.corpusMS,
		"fabric.rejected_jobs":       float64(rep.Rejected),
		"sim.engine_runs":            counted["engine.runs"],
		"sim.events_per_job":         counted["engine.events"] / jobs,
		"sim.mesh_cycles_per_job":    counted["engine.meshCycles"] / jobs,
		"sim.cycles_skipped_share":   ratio(counted["engine.cyclesSkipped"], counted["engine.meshCycles"]),
		"store.run_hits":             counted["store.runHits"],
		"store.run_misses":           counted["store.runMisses"],
		"serve.cache_hit_share":      ratio(counted["cache.hits"], counted["cache.hits"]+counted["cache.misses"]),
		"serve.batch_first_lap_s":    0,
		"admit.rejected":             counted["admit.rejected"],
		"dispatch.fill_jobs_per_s":   0,
		"dispatch.backend_share_max": ratio(math.Max(counted["dispatch.backendJobs.0"], counted["dispatch.backendJobs.1"]), counted["dispatch.backendJobs.0"]+counted["dispatch.backendJobs.1"]),
		"dispatch.retries":           counted["dispatch.retries"],
		"dispatch.local_fallbacks":   counted["dispatch.localFallbacks"],
		"dispatch.suspensions":       counted["dispatch.suspensions"],
		"client.latency_p99_ms":      median(p99),
		"client.lap_spread":          spread(wall),
		"client.generator_cpu_share": ratio(selfCPU, selfCPU+daemonCPU),
	}
	switch {
	case h.spec.batch:
		layer["serve.batch_first_lap_s"] = rep.PrimeS
	case h.spec.fleet:
		layer["dispatch.fill_jobs_per_s"] = jobs / rep.PrimeS
	}
	rep.PerLayer = layer
}

// gate is the part of the correctness gate that needs the whole run:
// warm workloads must not have touched the engine, and at the pinned seed
// the digests and simulated statistics must equal bench/golden.json.
func (h *harness) gate(rep *report) error {
	s := h.spec
	if runs := rep.PerLayer["sim.engine_runs"]; s.store && !s.freshPerLap && runs != 0 {
		return fmt.Errorf("%s: %v engine runs per lap on a warm store, want 0", s.name, runs)
	}
	return h.checkGolden(rep)
}
