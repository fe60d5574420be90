// Package scenario is the declarative registry behind "as many scenarios as
// you can imagine": every Chapter-7 experiment — a workload mix × fabric
// geometry set × clocking policy × cycle budget — is described as a data
// bundle instead of a hard-coded sweep. The built-in catalog re-expresses
// the existing suite sweeps byte-for-byte and user scenarios load from
// JSON. A scenario is only a sweep: fault injection lives in the tests of
// the package that survives the fault (the scenario/chaos and
// scenario/chaosfs injectors are their shared test doubles).
package scenario

import (
	"fmt"
	"strings"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// GenSpec selects a slice of the seeded generated corpus. Zero fields
// inherit the registry defaults, so catalog entries track the -seed/-gen
// flags of whichever process resolves them.
type GenSpec struct {
	Seed  int64 `json:"seed,omitempty"`
	Count int   `json:"count,omitempty"`
}

// WorkloadSpec selects the method population to sweep.
type WorkloadSpec struct {
	// Suites lists selectors: an exact suite name ("scimark.fft.large"),
	// an era ("era:SpecJvm98"), or "named" for every hand-built
	// SPEC-analog method.
	Suites []string `json:"suites,omitempty"`
	// Generated appends (part of) the seeded generated corpus.
	Generated *GenSpec `json:"generated,omitempty"`
}

// Bundle is one named scenario: everything needed to reproduce a run.
type Bundle struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Workload    WorkloadSpec `json:"workload"`
	// Configs lists fabric geometry/clocking entries by sim.Config name
	// (default: all six).
	Configs []string `json:"configs,omitempty"`
	// MaxMeshCycles bounds each simulated run (0 = resolver default).
	MaxMeshCycles int `json:"maxMeshCycles,omitempty"`
}

// ValidationError reports why a bundle is malformed.
type ValidationError struct {
	Scenario string
	Reason   string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("scenario %q: %s", e.Scenario, e.Reason)
}

func (b *Bundle) invalid(format string, args ...any) error {
	return &ValidationError{Scenario: b.Name, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks the bundle against the catalog's invariants: a name, a
// non-empty workload of known selectors, known configurations and a
// non-negative cycle budget.
func (b *Bundle) Validate() error {
	if b.Name == "" {
		return b.invalid("name must be non-empty")
	}
	if len(b.Workload.Suites) == 0 && b.Workload.Generated == nil {
		return b.invalid("empty workload: select suites or a generated corpus")
	}
	for _, sel := range b.Workload.Suites {
		if _, err := suiteSelection(sel); err != nil {
			return b.invalid("%v", err)
		}
	}
	if g := b.Workload.Generated; g != nil && g.Count < 0 {
		return b.invalid("generated count must be >= 0, got %d", g.Count)
	}
	if _, err := configsByName(b.Configs); err != nil {
		return b.invalid("%v", err)
	}
	if b.MaxMeshCycles < 0 {
		return b.invalid("maxMeshCycles must be >= 0, got %d", b.MaxMeshCycles)
	}
	return nil
}

// suiteSelection resolves one Suites selector to suites, or an error when
// nothing matches.
func suiteSelection(sel string) ([]*workload.Suite, error) {
	if sel == "named" {
		return workload.AllSuites(), nil
	}
	var out []*workload.Suite
	if era, ok := strings.CutPrefix(sel, "era:"); ok {
		for _, s := range workload.AllSuites() {
			if s.Era == era {
				out = append(out, s)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("unknown era selector %q", sel)
		}
		return out, nil
	}
	for _, s := range workload.AllSuites() {
		if s.Name == sel {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown suite %q", sel)
	}
	return out, nil
}

func configsByName(names []string) ([]sim.Config, error) {
	all := sim.Configurations()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]sim.Config, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	out := make([]sim.Config, 0, len(names))
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown config %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// Resolved is a bundle joined against the registry defaults: the concrete
// method list, fabric configurations, and cycle budget a runner executes.
type Resolved struct {
	Bundle        *Bundle
	Methods       []*classfile.Method
	Configs       []sim.Config
	MaxMeshCycles int
}

// Resolve materializes the bundle. Method order is deterministic and, for
// the catalog entries, identical to the legacy hard-coded paths: suite
// selectors flatten in AllSuites order deduplicating by signature (exactly
// workload.NamedMethods for "named"), and the generated corpus appends in
// generation order — so "named" + default Generated is byte-for-byte
// workload.Corpus(d.Seed, d.GenCount).
func (b *Bundle) Resolve(d Defaults) (*Resolved, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var methods []*classfile.Method
	add := func(m *classfile.Method) {
		sig := m.Signature()
		if !seen[sig] {
			seen[sig] = true
			methods = append(methods, m)
		}
	}
	for _, sel := range b.Workload.Suites {
		suites, err := suiteSelection(sel)
		if err != nil {
			return nil, b.invalid("%v", err)
		}
		for _, s := range suites {
			for _, m := range s.AllMethods() {
				add(m)
			}
		}
	}
	if g := b.Workload.Generated; g != nil {
		seed, count := g.Seed, g.Count
		if seed == 0 {
			seed = d.Seed
		}
		if count == 0 {
			count = d.GenCount
		}
		for _, cls := range workload.Generate(workload.GenConfig{Seed: seed, Count: count}) {
			for _, n := range cls.MethodNames() {
				add(cls.Methods[n])
			}
		}
	}
	configs, err := configsByName(b.Configs)
	if err != nil {
		return nil, b.invalid("%v", err)
	}
	maxCycles := b.MaxMeshCycles
	if maxCycles == 0 {
		maxCycles = d.MaxMeshCycles
	}
	return &Resolved{Bundle: b, Methods: methods, Configs: configs, MaxMeshCycles: maxCycles}, nil
}
