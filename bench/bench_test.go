//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints; the acceptance driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestBuildJobsSeededOrderCanonicalIndex(t *testing.T) {
	methods := workload.Corpus(corpusSeed, 30)
	configs := sim.Configurations()
	const lapMethods = 10
	a, err := buildJobs(methods, configs, 7, lapMethods)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildJobs(methods, configs, 7, lapMethods)
	if !reflect.DeepEqual(a.jobs, b.jobs) || string(a.batch) != string(b.batch) {
		t.Fatal("same seed gave a different job list")
	}
	c, _ := buildJobs(methods, configs, 8, lapMethods)
	if string(a.batch) == string(c.batch) {
		t.Error("different seeds gave the same order")
	}
	if len(a.jobs) != lapMethods*len(configs) {
		t.Fatalf("lap has %d jobs, want %d", len(a.jobs), lapMethods*len(configs))
	}
	seen := map[int]bool{}
	for k, j := range a.jobs {
		// Configuration-major: a block of lapMethods jobs shares one
		// configuration, so jobs of one method are lapMethods apart.
		if first := a.jobs[k/lapMethods*lapMethods]; j.cfg.Name != first.cfg.Name {
			t.Fatalf("job %d has configuration %s inside a block of %s", k, j.cfg.Name, first.cfg.Name)
		}
		// The canonical index names the (configuration, method) pair
		// whatever the seed: registry order, configuration-major.
		c, m := j.index/lapMethods, j.index%lapMethods
		if configs[c].Name != j.cfg.Name || methods[m] != j.method {
			t.Fatalf("job %d: index %d does not name (%s, %s)", k, j.index, j.cfg.Name, j.method.Signature())
		}
		seen[j.index] = true
	}
	if len(seen) != len(a.jobs) {
		t.Errorf("%d distinct indexes for %d jobs", len(seen), len(a.jobs))
	}
	// Every seed covers the same (configuration, method) set.
	for _, j := range c.jobs {
		if !seen[j.index] {
			t.Fatalf("seed 8 has job %d that seed 7 lacks", j.index)
		}
	}
	all, _ := buildJobs(methods, configs, 7, 0)
	if len(all.jobs) != len(methods)*len(configs) {
		t.Errorf("lapMethods 0 kept %d of %d jobs", len(all.jobs), len(methods)*len(configs))
	}
}

func TestLapDigestSeesStatusAndBody(t *testing.T) {
	base := []response{{status: 200, sum: [32]byte{1}}, {status: 422, sum: [32]byte{2}}}
	status := []response{{status: 200, sum: [32]byte{1}}, {status: 200, sum: [32]byte{2}}}
	body := []response{{status: 200, sum: [32]byte{1}}, {status: 422, sum: [32]byte{3}}}
	order := []response{base[1], base[0]}
	d := lapDigest(base)
	if d != lapDigest(base) {
		t.Error("digest is not deterministic")
	}
	for name, other := range map[string][]response{"status": status, "body": body, "order": order} {
		if lapDigest(other) == d {
			t.Errorf("digest blind to a change of %s", name)
		}
	}
}

func TestProcessCPUNanosAdvancesWithWork(t *testing.T) {
	before, err := processCPUNanos(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
		sink++
	}
	after, err := processCPUNanos(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// 20 ms of spinning is at least 10 ms of CPU even on a contended box,
	// and the clock must resolve far below a 10 ms tick.
	if burned := after - before; burned < 10e6 || burned%10e6 == 0 {
		t.Errorf("CPU clock advanced %d ns over a 20 ms spin (%d iterations)", burned, sink)
	}
	if _, err := processCPUNanos(1 << 22); err == nil {
		t.Error("a pid that cannot exist has a CPU clock")
	}
}

func TestPlanCPUs(t *testing.T) {
	set := func(cpus ...int) (s cpuSet) {
		for _, c := range cpus {
			s.add(c)
		}
		return s
	}
	for _, c := range []struct {
		allowed cpuSet
		want    string // <generator>:<daemons>
		batch   []int  // where a batch workload's daemon runs
	}{
		{set(0, 1), "1:0", []int{0, 1}},
		{set(3), "3:3", []int{3}},
		{set(0, 2, 5, 70), "70:0,2,5", []int{0, 2, 5, 70}},
	} {
		p, err := planCPUs(c.allowed)
		if err != nil || p.String() != c.want {
			t.Errorf("planCPUs(%v) = %v, %v; want %s", c.allowed.list(), p, err, c.want)
		}
		if back, err := parsePlan(p.String()); err != nil || back != p {
			t.Errorf("parsePlan(%q) = %v, %v; want the plan back", p, back, err)
		}
		if got := p.daemonCPUs(true).list(); !reflect.DeepEqual(got, c.batch) {
			t.Errorf("%s: batch daemon on %v, want %v", c.want, got, c.batch)
		}
		if got := p.daemonCPUs(false); got != p.daemons {
			t.Errorf("%s: /v1/run daemons on %v, want %v", c.want, got.list(), p.daemons.list())
		}
	}
	if _, err := planCPUs(cpuSet{}); err == nil {
		t.Error("an empty mask gave a plan")
	}
	for _, bad := range []string{"", "1", "1:", ":0", "a:0", "1:0,x", "1:-2", "1:5000"} {
		if _, err := parsePlan(bad); err == nil {
			t.Errorf("parsePlan(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	kb, err := parseVmHWM("Name:\tjfserved\nVmPeak:\t 1300000 kB\nVmHWM:\t  127992 kB\nVmRSS:\t  125804 kB\n")
	if err != nil || kb != 127992 {
		t.Errorf("parseVmHWM = %d, %v; want 127992", kb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("missing VmHWM line accepted")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", Job: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service", Job: 0, Start: 200, End: 280},
		{ID: 3, Parent: 2, Name: "engine", Job: 0, Start: 300, End: 350},
		{ID: 4, Parent: 2, Name: "put", Job: 0, Start: 400, End: 410},
		{ID: 5, Name: "engine", Job: 1, Start: 500, End: 530}, // cache hit upstream: no parent
	}
	self := selfTimes(spans)
	want := map[string][]float64{"http": {20}, "service": {20}, "engine": {50, 30}, "put": {10}}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := durations(spans)["service"]; !reflect.DeepEqual(got, []float64{80}) {
		t.Errorf("durations[service] = %v, want [80]", got)
	}
	var off *recorder
	ran := false
	if id := off.call("x", 0, 0, func() { ran = true }); id != 0 || !ran {
		t.Error("nil recorder must run the call and record nothing")
	}
}

// BENCHMARK.json repeats the metric and workload tables of main.go and
// workloads.go; the driver reads the file, the harness the tables.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var doc struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []decl, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if doc.Workloads[i].Name != s.name || doc.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %s: %s", i, doc.Workloads[i], s.name, s.why)
		}
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if w, ok := g.Workloads[s.name]; !ok || len(w.Digest) != 64 {
			t.Errorf("golden.json has no digest for %s", s.name)
		}
	}
	if len(g.TablesSHA256) != 64 {
		t.Error("golden.json has no jfbench -all digest")
	}
}

// TestSmoke builds the real binaries and runs every workload, traced, at
// toy scale: 2 laps x 120 jobs on a 20-method generated corpus.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns jfserved processes on the fixed benchmark ports")
	}
	at, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, s := range specs {
		opts := options{
			seed: 99, seconds: 0, trace: true, gen: 20,
			lapMethods: 20, traceJobs: 50, minLaps: 2, setupStarts: 2,
		}
		h, err := newHarness(opts, s, at)
		if err != nil {
			t.Fatal(err)
		}
		rep, spans, err := h.measure()
		h.close()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := checkMetrics(rep, true); err != nil {
			t.Error(err)
		}
		if len(rep.Laps) != 2 || len(rep.SetupS) != 2 || rep.LapJobs != 120 {
			t.Errorf("%s: %d laps, %d setup samples, %d jobs per lap; want 2, 2, 120", s.name, len(rep.Laps), len(rep.SetupS), rep.LapJobs)
		}
		if len(spans) == 0 {
			t.Errorf("%s: the replay recorded no spans", s.name)
		}
		digests[s.name] = rep.Digest
		if _, err := os.Stat(h.tmp); !os.IsNotExist(err) {
			t.Errorf("%s: temp dir %s survived close", s.name, h.tmp)
		}
	}
	// Byte identity across execution paths: cold, warm and dispatched.
	if digests["run-warm"] != digests["run-cold"] || digests["fleet-dispatch"] != digests["run-cold"] {
		t.Errorf("/v1/run digests differ across workloads: %v", digests)
	}
}
