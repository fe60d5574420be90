package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Defaults parameterize catalog resolution so registry entries follow the
// process's -seed/-gen/-maxcycles flags instead of baking in copies.
type Defaults struct {
	Seed          int64
	GenCount      int
	MaxMeshCycles int
}

// Chapter-7 sweep defaults (Table 16 population, 400k-cycle bound), shared
// with experiments.Context.
const (
	DefaultSeed          = 2014
	DefaultGenCount      = 1580
	DefaultMaxMeshCycles = 400_000
)

func (d Defaults) withFallbacks() Defaults {
	if d.Seed == 0 {
		d.Seed = DefaultSeed
	}
	if d.GenCount == 0 {
		d.GenCount = DefaultGenCount
	}
	if d.MaxMeshCycles == 0 {
		d.MaxMeshCycles = DefaultMaxMeshCycles
	}
	return d
}

// NotFoundError reports an unknown scenario name.
type NotFoundError struct {
	Name string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("unknown scenario %q", e.Name)
}

// Registry holds the built-in catalog plus any user-loaded bundles, in
// registration order.
type Registry struct {
	defaults Defaults
	bundles  map[string]*Bundle
	order    []string
}

// NewRegistry builds a registry pre-populated with the catalog.
func NewRegistry(d Defaults) *Registry {
	r := &Registry{
		defaults: d.withFallbacks(),
		bundles:  make(map[string]*Bundle),
	}
	for _, b := range Catalog() {
		if err := r.Add(b); err != nil {
			panic(fmt.Sprintf("scenario: catalog entry broken: %v", err))
		}
	}
	return r
}

// Defaults returns the resolution defaults.
func (r *Registry) Defaults() Defaults { return r.defaults }

// Names lists scenarios in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Get returns a bundle by name or a *NotFoundError.
func (r *Registry) Get(name string) (*Bundle, error) {
	b, ok := r.bundles[name]
	if !ok {
		return nil, &NotFoundError{Name: name}
	}
	return b, nil
}

// Resolve looks a scenario up and materializes it against the defaults.
func (r *Registry) Resolve(name string) (*Resolved, error) {
	b, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return b.Resolve(r.defaults)
}

// Add validates and registers a bundle; names are unique.
func (r *Registry) Add(b *Bundle) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if _, dup := r.bundles[b.Name]; dup {
		return fmt.Errorf("scenario %q already registered", b.Name)
	}
	r.bundles[b.Name] = b
	r.order = append(r.order, b.Name)
	return nil
}

// ParseBundle decodes one user scenario from JSON, rejecting unknown fields
// so typos fail loudly, and validates it.
func ParseBundle(data []byte) (*Bundle, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Bundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("scenario: parsing bundle: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// LoadFile reads, parses, validates and registers a user scenario file.
func (r *Registry) LoadFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	b, err := ParseBundle(data)
	if err != nil {
		return nil, err
	}
	if err := r.Add(b); err != nil {
		return nil, err
	}
	return b, nil
}

// Catalog returns the built-in bundles: every existing hard-coded suite
// sweep re-expressed as data (byte-identical results to the legacy paths).
func Catalog() []*Bundle {
	return []*Bundle{
		{
			Name:        "chapter7",
			Description: "Full Chapter-7 sweep: every named SPEC-analog method plus the seeded generated corpus across all six fabric configurations (the legacy jfbench -all population).",
			Workload:    WorkloadSpec{Suites: []string{"named"}, Generated: &GenSpec{}},
		},
		{
			Name:        "scimark",
			Description: "SciMark 2.0 large analogs (FFT, LU, SOR, sparse matmult, Monte Carlo) across all configurations.",
			Workload: WorkloadSpec{Suites: []string{
				"scimark.fft.large", "scimark.lu.large", "scimark.sor.large",
				"scimark.sparse.large", "scimark.monte_carlo",
			}},
		},
		{
			Name:        "crypto",
			Description: "SPECjvm2008 crypto.signverify analog (sha/mul/submul_1 kernels).",
			Workload:    WorkloadSpec{Suites: []string{"crypto.signverify"}},
		},
		{
			Name:        "compress",
			Description: "Both compress eras (SPECjvm2008 compress and JVM98 _201_compress) over the shared LZW kernels.",
			Workload:    WorkloadSpec{Suites: []string{"compress", "_201_compress"}},
		},
		{
			Name:        "spec98",
			Description: "The SPECjvm98 analog roster (_209_db, _222_mpegaudio, _202_jess, _227_mtrt, _228_jack, _201_compress).",
			Workload:    WorkloadSpec{Suites: []string{"era:SpecJvm98"}},
		},
	}
}
