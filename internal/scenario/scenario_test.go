package scenario_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"javaflow/internal/scenario"
	"javaflow/internal/workload"
)

// testDefaults keeps the generated corpus small so Resolve stays fast.
var testDefaults = scenario.Defaults{Seed: 2014, GenCount: 120, MaxMeshCycles: 400_000}

// TestCatalogRoundTrip: every built-in bundle must survive a JSON
// marshal/parse cycle unchanged — the catalog is expressible in exactly the
// format user scenario files use.
func TestCatalogRoundTrip(t *testing.T) {
	for _, b := range scenario.Catalog() {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("%s: marshal: %v", b.Name, err)
		}
		got, err := scenario.ParseBundle(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", b.Name, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("%s: round trip changed the bundle:\n got %+v\nwant %+v", b.Name, got, b)
		}
	}
}

// TestCatalogResolves: every catalog entry must materialize against the
// defaults — a broken entry should fail here, not at jfbench runtime.
func TestCatalogResolves(t *testing.T) {
	reg := scenario.NewRegistry(testDefaults)
	for _, name := range reg.Names() {
		res, err := reg.Resolve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Methods) == 0 {
			t.Fatalf("%s: resolved to an empty workload", name)
		}
		if len(res.Configs) == 0 {
			t.Fatalf("%s: resolved to zero configs", name)
		}
		if res.MaxMeshCycles != testDefaults.MaxMeshCycles {
			t.Fatalf("%s: maxMeshCycles = %d, want the default %d",
				name, res.MaxMeshCycles, testDefaults.MaxMeshCycles)
		}
	}
}

// TestChapter7MatchesLegacyCorpus is the catalog-equivalence contract at the
// population level: the chapter7 bundle must resolve to exactly
// workload.Corpus — same methods, same order — so its sweep is byte-identical
// to the legacy hard-coded path.
func TestChapter7MatchesLegacyCorpus(t *testing.T) {
	reg := scenario.NewRegistry(testDefaults)
	res, err := reg.Resolve("chapter7")
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Corpus(testDefaults.Seed, testDefaults.GenCount)
	if len(res.Methods) != len(want) {
		t.Fatalf("chapter7 resolved %d methods, corpus has %d", len(res.Methods), len(want))
	}
	for i := range want {
		if res.Methods[i].Signature() != want[i].Signature() {
			t.Fatalf("method %d: scenario %s vs corpus %s",
				i, res.Methods[i].Signature(), want[i].Signature())
		}
	}
}

// TestRegistryDefaultsFallbacks: zero-valued defaults inherit the Chapter-7
// constants instead of resolving empty populations.
func TestRegistryDefaultsFallbacks(t *testing.T) {
	d := scenario.NewRegistry(scenario.Defaults{}).Defaults()
	if d.Seed != scenario.DefaultSeed || d.GenCount != scenario.DefaultGenCount ||
		d.MaxMeshCycles != scenario.DefaultMaxMeshCycles {
		t.Fatalf("defaults = %+v, want the package constants", d)
	}
}

func TestRegistryUnknownScenario(t *testing.T) {
	reg := scenario.NewRegistry(testDefaults)
	_, err := reg.Get("no-such-scenario")
	var nf *scenario.NotFoundError
	if !errors.As(err, &nf) || nf.Name != "no-such-scenario" {
		t.Fatalf("err = %v, want *NotFoundError for the name", err)
	}
	if _, err := reg.Resolve("no-such-scenario"); !errors.As(err, &nf) {
		t.Fatalf("Resolve err = %v, want *NotFoundError", err)
	}
}

func TestRegistryRejectsDuplicate(t *testing.T) {
	reg := scenario.NewRegistry(testDefaults)
	dup := &scenario.Bundle{
		Name:     "crypto", // collides with the catalog entry
		Workload: scenario.WorkloadSpec{Suites: []string{"crypto.signverify"}},
	}
	if err := reg.Add(dup); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate Add err = %v, want a rejection", err)
	}
}

// TestValidationErrors pins the error contract for malformed bundles: every
// rejection is a *ValidationError naming the scenario and the reason.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		label  string
		bundle scenario.Bundle
		want   string // substring of the reason
	}{
		{
			label:  "empty name",
			bundle: scenario.Bundle{},
			want:   "name must be non-empty",
		},
		{
			label:  "empty workload",
			bundle: scenario.Bundle{Name: "x"},
			want:   "empty workload",
		},
		{
			label: "unknown suite",
			bundle: scenario.Bundle{Name: "x",
				Workload: scenario.WorkloadSpec{Suites: []string{"scimark.bogus"}}},
			want: `unknown suite "scimark.bogus"`,
		},
		{
			label: "unknown era",
			bundle: scenario.Bundle{Name: "x",
				Workload: scenario.WorkloadSpec{Suites: []string{"era:SpecJvm86"}}},
			want: `unknown era selector "era:SpecJvm86"`,
		},
		{
			label: "unknown config",
			bundle: scenario.Bundle{Name: "x",
				Workload: scenario.WorkloadSpec{Suites: []string{"named"}},
				Configs:  []string{"Compact3"}},
			want: `unknown config "Compact3"`,
		},
		{
			label: "negative maxMeshCycles",
			bundle: scenario.Bundle{Name: "x",
				Workload:      scenario.WorkloadSpec{Suites: []string{"named"}},
				MaxMeshCycles: -1},
			want: "maxMeshCycles must be >= 0",
		},
	}
	for _, tc := range cases {
		err := tc.bundle.Validate()
		var ve *scenario.ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("%s: err = %v, want *ValidationError", tc.label, err)
		}
		if !strings.Contains(ve.Reason, tc.want) {
			t.Fatalf("%s: reason %q does not mention %q", tc.label, ve.Reason, tc.want)
		}
	}
}

// TestParseBundleRejectsUnknownFields: typos in user scenario files must fail
// loudly instead of silently resolving a different scenario. So must the
// keys of removed features — the differential-oracle tier's "oracle", the
// fault schedule's "faults" and the "tier" that gated it: a bundle written
// for them would otherwise run as a plain sweep without what it asks for.
func TestParseBundleRejectsUnknownFields(t *testing.T) {
	for _, tc := range []struct{ bundle, field string }{
		{`{"name":"x","workloads":{}}`, "workloads"},
		{`{"name":"x","workload":{"suites":["named"]},"oracle":{"seed":9,"count":16}}`, "oracle"},
		{`{"name":"x","workload":{"suites":["named"]},"faults":[{"kind":"peer-flap"}]}`, "faults"},
		{`{"name":"x","tier":"standard","workload":{"suites":["named"]}}`, "tier"},
	} {
		_, err := scenario.ParseBundle([]byte(tc.bundle))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Fatalf("%s: err = %v, want an unknown-field rejection of %q", tc.bundle, err, tc.field)
		}
	}
	if _, err := scenario.ParseBundle([]byte(`{nope`)); err == nil {
		t.Fatal("malformed JSON parsed")
	}
}

// TestLoadFile drives the user-scenario path end to end: a JSON file loads,
// registers, and resolves; an invalid file reports a validation error.
func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "mine.json")
	if err := os.WriteFile(good, []byte(`{
		"name": "mine",
		"workload": {"suites": ["crypto.signverify"]},
		"configs": ["Compact2", "Hetero2"],
		"maxMeshCycles": 900
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := scenario.NewRegistry(testDefaults)
	b, err := reg.LoadFile(good)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if b.Name != "mine" || b.MaxMeshCycles != 900 {
		t.Fatalf("loaded bundle = %+v", b)
	}
	res, err := reg.Resolve("mine")
	if err != nil {
		t.Fatalf("resolve loaded scenario: %v", err)
	}
	if len(res.Configs) != 2 || res.Configs[0].Name != "Compact2" || res.MaxMeshCycles != 900 {
		t.Fatalf("resolved configs = %+v, maxMeshCycles %d", res.Configs, res.MaxMeshCycles)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"bad","workload":{"suites":["scimark.bogus"]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *scenario.ValidationError
	if _, err := reg.LoadFile(bad); !errors.As(err, &ve) {
		t.Fatalf("invalid file err = %v, want *ValidationError", err)
	}
	if _, err := reg.LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}
