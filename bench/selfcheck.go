//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// selfcheckRow compares one (workload, metric) between the two sets of
// runs of the same commit.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// Gap is how much worse set B's median is than set A's, as a share of
	// A's (negative when B is better); Spread the interquartile distance of
	// all runs as a share of their median.
	Gap    float64 `json:"gap"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	OK     bool    `json:"ok"`
}

// baselineRow summarises one (workload, metric) over every run made.
type baselineRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

// runSelfcheck runs the whole suite as two interleaved sets (A B A B ...),
// selfcheckRuns runs per set and workload, all at one seed. It fails when the
// sets' medians differ by more than a metric's bound, when an exact count
// differs at all, or when the three /v1/run workloads disagree on the
// response digest. It writes out/selfcheck.json (the comparison) and
// out/baseline.json (medians and quartiles of all runs, the file committed
// as results/baseline.json).
func runSelfcheck(opts options, at site) error {
	opts.trace = false
	// e2e[workload][metric][set] = values; exact[workload][metric] = first value seen.
	e2e := map[string]map[string][2][]float64{}
	exact := map[string]map[string]float64{}
	digests := map[string]string{}
	failures := []string{}
	for r := 0; r < selfcheckRuns; r++ {
		for set := 0; set < 2; set++ {
			for _, s := range specs {
				rep, err := runOnce(opts, s, at)
				if err != nil {
					return fmt.Errorf("set %c run %d: %w", 'A'+set, r, err)
				}
				fmt.Fprintf(os.Stderr, "set %c run %d %-15s jobs/s %9.1f  p50 %7.4f ms  cpu %7.4f ms/job  rss %7.1f MB  setup %6.4f s\n",
					'A'+set, r, s.name, rep.EndToEnd["jobs_per_s"], rep.EndToEnd["latency_p50_ms"],
					rep.EndToEnd["cpu_ms_per_job"], rep.EndToEnd["peak_rss_mb"], rep.EndToEnd["setup_s"])
				if e2e[s.name] == nil {
					e2e[s.name] = map[string][2][]float64{}
					exact[s.name] = map[string]float64{}
					digests[s.name] = rep.Digest
				}
				for _, m := range endToEnd {
					pair := e2e[s.name][m.name]
					pair[set] = append(pair[set], rep.EndToEnd[m.name])
					e2e[s.name][m.name] = pair
				}
				for _, m := range perLayer {
					if !m.exact {
						continue
					}
					v := rep.PerLayer[m.name]
					if first, seen := exact[s.name][m.name]; !seen {
						exact[s.name][m.name] = v
					} else if first != v {
						failures = append(failures, fmt.Sprintf("%s %s: exact count moved between runs of one commit: %v then %v", s.name, m.name, first, v))
					}
				}
				if rep.Digest != digests[s.name] {
					failures = append(failures, fmt.Sprintf("%s: response digest moved between runs", s.name))
				}
			}
		}
	}
	// Byte identity across execution paths, now under load: cold, warm
	// and dispatched runs of one job list must answer the same bytes.
	for _, name := range []string{"run-warm", "fleet-dispatch"} {
		if digests[name] != digests["run-cold"] {
			failures = append(failures, fmt.Sprintf("%s digest %s differs from run-cold digest %s", name, digests[name], digests["run-cold"]))
		}
	}

	var rows []selfcheckRow
	var base []baselineRow
	for _, s := range specs {
		for _, m := range endToEnd {
			pair := e2e[s.name][m.name]
			a, b := median(pair[0]), median(pair[1])
			gap := (b - a) / a
			if m.better == "higher" {
				gap = (a - b) / a
			}
			all := append(append([]float64(nil), pair[0]...), pair[1]...)
			row := selfcheckRow{
				Workload: s.name, Metric: m.name, MedianA: a, MedianB: b,
				Gap: gap, Spread: spread(all), Bound: m.bound, OK: gap <= m.bound && -gap <= m.bound,
			}
			rows = append(rows, row)
			if !row.OK {
				failures = append(failures, fmt.Sprintf("%s %s: set medians %.5g vs %.5g differ by %.1f%%, bound %.0f%%",
					s.name, m.name, a, b, 100*gap, 100*m.bound))
			}
			q1, q3 := quartiles(all)
			base = append(base, baselineRow{Workload: s.name, Metric: m.name, Unit: m.unit, Median: median(all), Q1: q1, Q3: q3, Values: all})
			fmt.Fprintf(os.Stderr, "%-15s %-15s A %10.4f  B %10.4f  gap %+6.2f%%  spread %5.2f%%  bound %3.0f%%\n",
				s.name, m.name, a, b, 100*gap, 100*row.Spread, 100*m.bound)
		}
	}
	if err := writeJSON(filepath.Join(at.outDir, "selfcheck.json"), map[string]any{
		"env": at.env, "seed": opts.seed, "seconds": opts.seconds, "runs_per_set": selfcheckRuns,
		"rows": rows, "exact_counts": exact, "digests": digests, "failures": failures,
	}); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(at.outDir, "baseline.json"), map[string]any{
		"env": at.env, "seed": opts.seed, "seconds": opts.seconds, "runs_per_workload": 2 * selfcheckRuns,
		"end_to_end": base, "exact_counts": exact, "digests": digests,
	}); err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "selfcheck:", f)
		}
		return fmt.Errorf("selfcheck failed: %d findings (see bench/out/selfcheck.json)", len(failures))
	}
	fmt.Fprintln(os.Stderr, "selfcheck passed")
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
