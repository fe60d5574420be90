package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"javaflow/internal/sim"
)

// ConfigDigest summarizes one configuration's sweep: how many methods ran
// and a SHA-256 digest over the concatenated MethodRun binary encodings in
// collection order. Two runs are byte-identical iff their digests match,
// which is what the catalog-equivalence test
// (experiments.TestChapter7DigestsMatchSimResults) compares.
type ConfigDigest struct {
	Config   string `json:"config"`
	Methods  int    `json:"methods"`
	Skipped  int    `json:"skipped"`
	TimedOut int    `json:"timedOut"`
	Digest   string `json:"digest"`
}

// DigestRuns hashes the concatenated binary encodings of runs in order.
func DigestRuns(runs []sim.MethodRun) (string, error) {
	h := sha256.New()
	for _, run := range runs {
		data, err := run.MarshalBinary()
		if err != nil {
			return "", fmt.Errorf("scenario: encoding %s: %w", run.Signature, err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// DigestLine renders the stable one-line form `jfbench -scenario` prints.
func (cd ConfigDigest) DigestLine() string {
	return fmt.Sprintf("digest %s methods=%d skipped=%d timedout=%d sha256=%s",
		cd.Config, cd.Methods, cd.Skipped, cd.TimedOut, cd.Digest)
}

// FaultOutcome records one interpreted fault-schedule entry.
type FaultOutcome struct {
	Kind FaultKind `json:"kind"`
	// Injected reports the fault actually fired (a schedule that never
	// injects proves nothing).
	Injected bool `json:"injected"`
	// Recovered reports the system produced correct results anyway.
	Recovered bool   `json:"recovered"`
	Detail    string `json:"detail,omitempty"`
}

// TierResult is a per-tier pass/fail row.
type TierResult struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail,omitempty"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario string         `json:"scenario"`
	Tier     Tier           `json:"tier"`
	Configs  []ConfigDigest `json:"configs,omitempty"`
	Faults   []FaultOutcome `json:"faults,omitempty"`
	Tiers    []TierResult   `json:"tiers"`
	Passed   bool           `json:"passed"`
}

// Finish derives the per-tier rows and the overall verdict from the
// collected sections. Call once after all sections are filled in.
func (r *Report) Finish() {
	r.Tiers = r.Tiers[:0]
	r.Passed = true
	if len(r.Configs) > 0 {
		r.Tiers = append(r.Tiers, TierResult{
			Name: "sweep", Passed: true,
			Detail: fmt.Sprintf("%d configuration(s)", len(r.Configs)),
		})
	}
	if len(r.Faults) > 0 {
		ok := true
		for _, f := range r.Faults {
			if !f.Injected || !f.Recovered {
				ok = false
			}
		}
		if !ok {
			r.Passed = false
		}
		r.Tiers = append(r.Tiers, TierResult{Name: "chaos", Passed: ok,
			Detail: fmt.Sprintf("%d fault(s) injected", len(r.Faults))})
	}
}

// Render formats the report for terminals (jfbench output).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (tier %s)\n", r.Scenario, r.Tier)
	for _, cd := range r.Configs {
		fmt.Fprintf(&b, "  %s\n", cd.DigestLine())
	}
	for _, f := range r.Faults {
		fmt.Fprintf(&b, "  fault %-18s injected=%v recovered=%v %s\n",
			f.Kind, f.Injected, f.Recovered, f.Detail)
	}
	for _, tr := range r.Tiers {
		fmt.Fprintf(&b, "  tier %-8s %s (%s)\n", tr.Name, passFail(tr.Passed), tr.Detail)
	}
	fmt.Fprintf(&b, "scenario %s: %s\n", r.Scenario, passFail(r.Passed))
	return b.String()
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
