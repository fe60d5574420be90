// Package scenario names the fixed sweep presets behind `jfbench -scenario`
// and scenario-keyed POST /v1/batch. A preset selects part of the method
// corpus its caller already holds — named suites, an era, the generated
// methods — and is swept across every fabric configuration; the "chapter7"
// preset selects the whole corpus, so its sweep is byte-for-byte the
// table path's (experiments.TestChapter7DigestsMatchSimResults). A
// scenario is only a sweep: fault injection lives in the tests of the
// package that survives the fault (the scenario/chaos and
// scenario/chaosfs injectors are their shared test doubles).
package scenario

import (
	"fmt"
	"strings"

	"javaflow/internal/classfile"
	"javaflow/internal/workload"
)

// Preset is one named sweep over a selection of the caller's corpus.
type Preset struct {
	Name        string
	Description string
	// Suites lists selectors: an exact suite name ("scimark.fft.large"),
	// an era ("era:SpecJvm98"), or "named" for every hand-built
	// SPEC-analog method.
	Suites []string
	// Generated appends the corpus's generated methods.
	Generated bool
}

var catalog = []Preset{
	{
		Name:        "chapter7",
		Description: "Full Chapter-7 sweep: every named SPEC-analog method plus the seeded generated corpus across all six fabric configurations (the legacy jfbench -all population).",
		Suites:      []string{"named"},
		Generated:   true,
	},
	{
		Name:        "scimark",
		Description: "SciMark 2.0 large analogs (FFT, LU, SOR, sparse matmult, Monte Carlo) across all configurations.",
		Suites: []string{
			"scimark.fft.large", "scimark.lu.large", "scimark.sor.large",
			"scimark.sparse.large", "scimark.monte_carlo",
		},
	},
	{
		Name:        "crypto",
		Description: "SPECjvm2008 crypto.signverify analog (sha/mul/submul_1 kernels).",
		Suites:      []string{"crypto.signverify"},
	},
	{
		Name:        "compress",
		Description: "Both compress eras (SPECjvm2008 compress and JVM98 _201_compress) over the shared LZW kernels.",
		Suites:      []string{"compress", "_201_compress"},
	},
	{
		Name:        "spec98",
		Description: "The SPECjvm98 analog roster (_209_db, _222_mpegaudio, _202_jess, _227_mtrt, _228_jack, _201_compress).",
		Suites:      []string{"era:SpecJvm98"},
	},
}

// Catalog returns the presets in catalog order. Callers must not modify
// them.
func Catalog() []Preset { return catalog }

// NotFoundError reports an unknown scenario name.
type NotFoundError struct {
	Name string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("unknown scenario %q", e.Name)
}

// Lookup returns the preset called name, or a *NotFoundError.
func Lookup(name string) (*Preset, error) {
	for i := range catalog {
		if catalog[i].Name == name {
			return &catalog[i], nil
		}
	}
	return nil, &NotFoundError{Name: name}
}

// Select returns the corpus methods the preset names. Suite selectors
// flatten in workload.AllSuites order, deduplicating by signature, and the
// generated methods follow in corpus order — so over workload.Corpus,
// "named" plus Generated is the corpus itself. A suite method the corpus
// lacks is not selected; an unknown selector is an error.
func (p *Preset) Select(corpus []*classfile.Method) ([]*classfile.Method, error) {
	bySig := make(map[string]*classfile.Method, len(corpus))
	for _, m := range corpus {
		bySig[m.Signature()] = m
	}
	all := workload.AllSuites()
	seen := make(map[string]bool)
	var out []*classfile.Method
	for _, sel := range p.Suites {
		suites, err := suiteSelection(all, sel)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", p.Name, err)
		}
		for _, s := range suites {
			for _, m := range s.AllMethods() {
				sig := m.Signature()
				if cm, ok := bySig[sig]; ok && !seen[sig] {
					seen[sig] = true
					out = append(out, cm)
				}
			}
		}
	}
	if p.Generated {
		named := make(map[string]bool)
		for _, s := range all {
			for _, m := range s.AllMethods() {
				named[m.Signature()] = true
			}
		}
		for _, m := range corpus {
			if sig := m.Signature(); !named[sig] && !seen[sig] {
				seen[sig] = true
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// suiteSelection resolves one Suites selector against the roster, or
// reports that nothing matches.
func suiteSelection(all []*workload.Suite, sel string) ([]*workload.Suite, error) {
	if sel == "named" {
		return all, nil
	}
	era, isEra := strings.CutPrefix(sel, "era:")
	var out []*workload.Suite
	for _, s := range all {
		if (isEra && s.Era == era) || (!isEra && s.Name == sel) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		if isEra {
			return nil, fmt.Errorf("unknown era selector %q", sel)
		}
		return nil, fmt.Errorf("unknown suite %q", sel)
	}
	return out, nil
}
