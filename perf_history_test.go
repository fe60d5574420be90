package javaflow_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// historyRow is one claimed gain in perf/history.jsonl: the workload and
// metric a change claimed, how many alternating parent/change pairs were
// run and how many the change won, and the medians with their relative
// delta (change / parent - 1), as docs/performance.md reports them.
type historyRow struct {
	PR       int     `json:"pr"`
	Title    string  `json:"title"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Pairs    int     `json:"pairs"`
	Wins     int     `json:"wins"`
	Parent   float64 `json:"parent"`
	Change   float64 `json:"change"`
	Delta    float64 `json:"delta"`
}

// TestPerfHistory keeps perf/history.jsonl consistent with BENCHMARK.json:
// every row names a declared workload and metric, wins no more pairs than
// it ran, and moves its metric the way the metric's "better" says, in its
// delta and in its medians. Rows are in PR order, one per PR.
func TestPerfHistory(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Better string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	better := map[string]string{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		better[m.Name] = m.Better
	}

	f, err := os.Open("perf/history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	rows, lastPR := 0, 0
	for line := 1; sc.Scan(); line++ {
		var r historyRow
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		rows++
		if r.PR <= lastPR {
			t.Errorf("line %d: PR %d after PR %d", line, r.PR, lastPR)
		}
		lastPR = r.PR
		if !workloads[r.Workload] {
			t.Errorf("PR %d: workload %q is not declared in BENCHMARK.json", r.PR, r.Workload)
		}
		b, ok := better[r.Metric]
		if !ok {
			t.Errorf("PR %d: metric %q is not declared in BENCHMARK.json", r.PR, r.Metric)
			continue
		}
		if r.Pairs <= 0 || r.Wins < 0 || r.Wins > r.Pairs {
			t.Errorf("PR %d: %d wins of %d pairs", r.PR, r.Wins, r.Pairs)
		}
		sign := 1.0 // "higher" is better
		if b == "lower" {
			sign = -1
		}
		if sign*r.Delta <= 0 || sign*(r.Change-r.Parent) <= 0 {
			t.Errorf("PR %d: %s %v -> %v (delta %+.3f) is not a gain for a metric where %s is better",
				r.PR, r.Metric, r.Parent, r.Change, r.Delta, b)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("perf/history.jsonl holds no rows")
	}
}
