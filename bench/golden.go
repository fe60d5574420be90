//go:build linux

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins, for one (gen, lap size), what the program must answer: the
// response digest of every workload, the number of fabric rejections, the
// simulated event count per job and the digest of the legacy table sweep.
// /v1/run digests are filed by canonical job index and hold at every seed;
// the /v1/batch summary depends on the order of its request, so
// batch-sweep's digest holds at Seed only. A change that moves any of
// them changed simulator output, not just speed, and needs an
// EngineVersion story.
type golden struct {
	Seed       int64 `json:"seed"`
	Gen        int   `json:"gen"`
	LapMethods int   `json:"lap_methods"`
	Workloads  map[string]struct {
		Digest       string  `json:"digest"`
		Rejected     int     `json:"rejected_422_per_lap"`
		EventsPerJob float64 `json:"sim.events_per_job"`
	} `json:"workloads"`
	TablesSHA256 string `json:"tables_all_sha256"`
}

// loadGolden returns the pinned values, or nil when this run's inputs are
// not the pinned ones.
func (h *harness) loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	if g.Gen != h.opts.gen || g.LapMethods != h.opts.lapMethods {
		return nil, nil
	}
	return &g, nil
}

func (h *harness) checkGolden(rep *report) error {
	g, err := h.loadGolden()
	if g == nil || err != nil {
		return err
	}
	want, ok := g.Workloads[rep.Workload]
	if !ok {
		return fmt.Errorf("bench/golden.json has no entry for %s", rep.Workload)
	}
	if rep.Digest != want.Digest && (rep.Workload != "batch-sweep" || h.opts.seed == g.Seed) {
		return fmt.Errorf("%s: response digest %s, golden %s", rep.Workload, rep.Digest, want.Digest)
	}
	if rep.Rejected != want.Rejected {
		return fmt.Errorf("%s: %d fabric rejections per lap, golden %d", rep.Workload, rep.Rejected, want.Rejected)
	}
	if got := rep.PerLayer["sim.events_per_job"]; got != want.EventsPerJob {
		return fmt.Errorf("%s: sim.events_per_job %v, golden %v", rep.Workload, got, want.EventsPerJob)
	}
	return nil
}
