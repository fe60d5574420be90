// Package scenario is the declarative registry behind "as many scenarios as
// you can imagine": every Chapter-7 experiment — a workload mix × fabric
// geometry set × clocking policy, optionally under an adversarial fault
// schedule — is described as a data bundle instead of a hard-coded sweep.
// The built-in catalog re-expresses the existing suite sweeps byte-for-byte,
// user scenarios load from JSON, and the chaos tiers drive the injectors in
// the scenario/chaos and scenario/chaosfs subpackages against the
// dispatch/replicate/store seams.
package scenario

import (
	"fmt"
	"strings"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// Tier grades a scenario's difficulty, after the honeycomb-style
// scenario/difficulty split: standard scenarios measure, adversarial ones
// also try to break the system (fault schedules).
type Tier string

const (
	TierStandard    Tier = "standard"
	TierAdversarial Tier = "adversarial"
)

// FaultKind names one injectable failure mode. Each kind maps onto a seam
// the repo already survives in one-off tests; the chaos harness makes the
// injection schedulable from data.
type FaultKind string

const (
	// FaultBackendDeath kills a dispatch backend mid-batch (the PR 3
	// failure drill): the ring must retry the stranded jobs elsewhere.
	FaultBackendDeath FaultKind = "backend-death"
	// FaultPeerFlap makes a replication peer serve errors for part of a
	// sync round, then heal: cursors must hold partial progress and the
	// next round must converge byte-identically.
	FaultPeerFlap FaultKind = "peer-flap"
	// FaultStoreCorruption damages a flushed segment on disk (CRC bit-flip
	// or tail truncation): reopen must quarantine the damage and
	// recomputation must restore byte-identical records.
	FaultStoreCorruption FaultKind = "store-corruption"
	// FaultDeadlinePressure squeezes the mesh-cycle budget until runs time
	// out, then restores it: timeouts must be reported, never mistaken for
	// results.
	FaultDeadlinePressure FaultKind = "deadline-pressure"
	// FaultGossipPartition drops a peer's inbound gossip notifications
	// while results commit, then heals the partition: the next
	// advertisement must catch the peer up to a byte-identical union with
	// no periodic pull round involved.
	FaultGossipPartition FaultKind = "gossip-partition"
	// FaultOverload floods the serving front past its run-class admission
	// cap: the overflow must shed with typed 429s carrying an honest
	// Retry-After, every admitted request must return byte-identical
	// results, and service must recover fully once the flood drains.
	FaultOverload FaultKind = "overload"
	// FaultSlowPeer wedges a dispatch peer — it accepts connections but
	// stalls before answering: the transport header timeout must fail the
	// attempt, and retry/local fallback must complete every job
	// byte-identically instead of letting the slow peer wedge the batch.
	FaultSlowPeer FaultKind = "slow-peer"
)

// Corruption modes for FaultStoreCorruption.
const (
	CorruptBitFlip  = "bitflip"
	CorruptTruncate = "truncate"
)

// Fault is one scheduled injection.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// After is, for backend-death, how many jobs the doomed backend
	// completes before dying (default 1).
	After int `json:"after,omitempty"`
	// Mode is, for store-corruption, "bitflip" (flip a CRC-trailer bit) or
	// "truncate" (drop the segment tail). Default "bitflip".
	Mode string `json:"mode,omitempty"`
	// MaxCycles is, for deadline-pressure, the squeezed per-run mesh-cycle
	// budget (default 500 — low enough that real methods time out).
	MaxCycles int `json:"maxCycles,omitempty"`
	// Cap is, for overload, the run-class admission cap the drill floods
	// against (default 2).
	Cap int `json:"cap,omitempty"`
	// Flood is, for overload, how many concurrent requests the drill
	// fires (default 4×Cap — the CI-pinned 4×-capacity flood).
	Flood int `json:"flood,omitempty"`
	// DelayMs is, for slow-peer, how long the wedged peer stalls before
	// answering, in milliseconds (default 2000).
	DelayMs int `json:"delayMs,omitempty"`
}

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
	Tier        Tier         `json:"tier"`
	Workload    WorkloadSpec `json:"workload"`
	// Configs lists fabric geometry/clocking entries by sim.Config name
	// (default: all six).
	Configs []string `json:"configs,omitempty"`
	// MaxMeshCycles bounds each simulated run (0 = resolver default).
	MaxMeshCycles int `json:"maxMeshCycles,omitempty"`
	// Faults is the chaos schedule, interpreted by the harness.
	Faults []Fault `json:"faults,omitempty"`
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

// Validate checks the bundle against the catalog's invariants: known
// selectors, known fault kinds with sane parameters, and tier consistency
// (fault schedules are adversarial machinery).
func (b *Bundle) Validate() error {
	if b.Name == "" {
		return b.invalid("name must be non-empty")
	}
	switch b.Tier {
	case TierStandard, TierAdversarial:
	default:
		return b.invalid("unknown tier %q (want %q or %q)", b.Tier, TierStandard, TierAdversarial)
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
	if len(b.Faults) > 0 && b.Tier != TierAdversarial {
		return b.invalid("fault schedules require tier %q", TierAdversarial)
	}
	for i, f := range b.Faults {
		if err := f.validate(); err != nil {
			return b.invalid("fault %d: %v", i, err)
		}
	}
	return nil
}

func (f Fault) validate() error {
	switch f.Kind {
	case FaultBackendDeath:
		if f.After < 0 {
			return fmt.Errorf("%s: after must be >= 0, got %d", f.Kind, f.After)
		}
	case FaultPeerFlap:
	case FaultGossipPartition:
	case FaultStoreCorruption:
		switch f.Mode {
		case "", CorruptBitFlip, CorruptTruncate:
		default:
			return fmt.Errorf("%s: unknown mode %q (want %q or %q)",
				f.Kind, f.Mode, CorruptBitFlip, CorruptTruncate)
		}
	case FaultDeadlinePressure:
		if f.MaxCycles < 0 {
			return fmt.Errorf("%s: maxCycles must be >= 0, got %d", f.Kind, f.MaxCycles)
		}
	case FaultOverload:
		if f.Cap < 0 {
			return fmt.Errorf("%s: cap must be >= 0, got %d", f.Kind, f.Cap)
		}
		if f.Flood < 0 {
			return fmt.Errorf("%s: flood must be >= 0, got %d", f.Kind, f.Flood)
		}
	case FaultSlowPeer:
		if f.DelayMs < 0 {
			return fmt.Errorf("%s: delayMs must be >= 0, got %d", f.Kind, f.DelayMs)
		}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
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
