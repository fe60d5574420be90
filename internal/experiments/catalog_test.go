package experiments

import (
	"testing"

	"javaflow/internal/scenario"
	"javaflow/internal/sim"
)

// TestChapter7DigestsMatchSimResults is the catalog-equivalence contract:
// the "chapter7" scenario preset, run through RunScenario, sweeps exactly
// what the hard-coded table path (SimResults) sweeps — per configuration,
// the same method, skip and timeout counts and a byte-identical digest
// over every MethodRun. Each side runs on its own Context, so nothing is
// shared between them but the code.
func TestChapter7DigestsMatchSimResults(t *testing.T) {
	const gen = 60
	p, err := scenario.Lookup("chapter7")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewContext()
	sc.GenCount = gen
	rep, err := sc.RunScenario(p)
	if err != nil {
		t.Fatal(err)
	}

	legacy := NewContext()
	legacy.GenCount = gen
	configs := sim.Configurations()
	if len(rep.Configs) != len(configs) {
		t.Fatalf("scenario swept %d configurations, want all %d", len(rep.Configs), len(configs))
	}
	for i, cfg := range configs {
		cr, err := legacy.SimResults(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := scenario.DigestRuns(cr.Runs)
		if err != nil {
			t.Fatal(err)
		}
		want := scenario.ConfigDigest{
			Config: cfg.Name, Methods: len(cr.Runs),
			Skipped: cr.Skipped, TimedOut: cr.TimedOut, Digest: digest,
		}
		if want.Methods == 0 {
			t.Errorf("%s: the table path ran no methods; the comparison would be vacuous", cfg.Name)
		}
		if got := rep.Configs[i]; got != want {
			t.Errorf("%s: scenario %s\n  table path %s", cfg.Name, got.DigestLine(), want.DigestLine())
		}
	}
}
