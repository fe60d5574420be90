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

// Report is the outcome of one scenario sweep: one digest per configuration.
type Report struct {
	Scenario string         `json:"scenario"`
	Configs  []ConfigDigest `json:"configs,omitempty"`
}

// Render formats the report for terminals (jfbench output).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", r.Scenario)
	for _, cd := range r.Configs {
		fmt.Fprintf(&b, "  %s\n", cd.DigestLine())
	}
	return b.String()
}
