package scenario_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/scenario"
	"javaflow/internal/workload"
)

// testCorpus keeps the generated population small so Select stays fast.
func testCorpus() []*classfile.Method { return workload.Corpus(2014, 120) }

// TestCatalogRoundTrip: every preset name is unique and looks up to
// itself, so a name printed by `jfbench -scenarios` or GET /v1/scenarios
// always runs the preset it describes.
func TestCatalogRoundTrip(t *testing.T) {
	seen := make(map[string]bool)
	for i, p := range scenario.Catalog() {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("preset %d: name %q is empty or duplicated", i, p.Name)
		}
		seen[p.Name] = true
		got, err := scenario.Lookup(p.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(*got, p) {
			t.Fatalf("%s: Lookup returned %+v, want %+v", p.Name, got, p)
		}
	}
}

// TestCatalogResolves: every preset must select a non-empty population
// from the corpus — a preset naming an unknown suite or era fails here,
// not at jfbench or jfserved runtime.
func TestCatalogResolves(t *testing.T) {
	corpus := testCorpus()
	for _, p := range scenario.Catalog() {
		methods, err := p.Select(corpus, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(methods) == 0 {
			t.Fatalf("%s: selected an empty workload", p.Name)
		}
	}
}

// TestSelectRejectsUnknownSelectors pins the error a misspelt suite or era
// selector produces.
func TestSelectRejectsUnknownSelectors(t *testing.T) {
	for sel, want := range map[string]string{
		"scimark.bogus": `unknown suite "scimark.bogus"`,
		"era:SpecJvm86": `unknown era selector "era:SpecJvm86"`,
	} {
		p := scenario.Preset{Name: "x", Suites: []string{sel}}
		if _, err := p.Select(testCorpus(), nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", sel, err, want)
		}
	}
}

// TestChapter7MatchesLegacyCorpus is the catalog-equivalence contract at the
// population level: the chapter7 preset must select exactly the corpus —
// same methods, same order — so its sweep is byte-identical to the table
// path's.
func TestChapter7MatchesLegacyCorpus(t *testing.T) {
	p, err := scenario.Lookup("chapter7")
	if err != nil {
		t.Fatal(err)
	}
	want := testCorpus()
	got, err := p.Select(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("chapter7 selected %d methods, corpus has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("method %d: scenario %s vs corpus %s", i, got[i].Signature(), want[i].Signature())
		}
	}
}

// TestSelectFiltersTheCallersCorpus: a preset selects only methods the
// caller holds, so a node serving part of the corpus sweeps that part.
func TestSelectFiltersTheCallersCorpus(t *testing.T) {
	named := workload.NamedMethods()
	chapter7, _ := scenario.Lookup("chapter7")
	got, err := chapter7.Select(named, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(named) {
		t.Fatalf("chapter7 over the named methods selected %d, want %d", len(got), len(named))
	}
	generated := testCorpus()[len(named):]
	crypto, _ := scenario.Lookup("crypto")
	if got, err := crypto.Select(generated, nil); err != nil || len(got) != 0 {
		t.Fatalf("crypto over the generated methods selected %d (err %v), want none", len(got), err)
	}
}

func TestRegistryUnknownScenario(t *testing.T) {
	_, err := scenario.Lookup("no-such-scenario")
	var nf *scenario.NotFoundError
	if !errors.As(err, &nf) || nf.Name != "no-such-scenario" {
		t.Fatalf("err = %v, want *NotFoundError for the name", err)
	}
	if err.Error() != `unknown scenario "no-such-scenario"` {
		t.Fatalf("err = %q", err)
	}
}

// BenchmarkPresetSelect measures what a scenario-keyed batch spends on
// selection over the serving corpus (1580 generated methods), with the
// signature lookup the service already holds.
func BenchmarkPresetSelect(b *testing.B) {
	corpus := workload.Corpus(2014, 1580)
	bySig := make(map[string]*classfile.Method, len(corpus))
	for _, m := range corpus {
		bySig[m.Signature()] = m
	}
	for _, p := range scenario.Catalog() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Select(corpus, bySig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
