package jvm

import (
	"sort"

	"javaflow/internal/bytecode"
)

// Profile accumulates dynamic execution statistics, reproducing the
// methodology of Section 5.2: "establish a 256 element array for each method
// signature which was executed. Each element in the array is a counter for
// the corresponding ByteCode instruction."
type Profile struct {
	perMethod map[string]*[256]uint64
	totalOps  uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{perMethod: make(map[string]*[256]uint64)}
}

func (p *Profile) record(sig string, op bytecode.Opcode) {
	counts, ok := p.perMethod[sig]
	if !ok {
		counts = new([256]uint64)
		p.perMethod[sig] = counts
	}
	counts[byte(op)]++
	p.totalOps++
}

// TotalOps returns the total ByteCode instructions executed.
func (p *Profile) TotalOps() uint64 { return p.totalOps }

// MethodsExecuted returns the number of distinct method signatures executed.
func (p *Profile) MethodsExecuted() int { return len(p.perMethod) }

// OpsOf returns the total instructions executed within sig.
func (p *Profile) OpsOf(sig string) uint64 {
	counts, ok := p.perMethod[sig]
	if !ok {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}

// OpCount returns how many times op executed within sig.
func (p *Profile) OpCount(sig string, op bytecode.Opcode) uint64 {
	if counts, ok := p.perMethod[sig]; ok {
		return counts[byte(op)]
	}
	return 0
}

// MethodShare is one row of the method-utilization analysis.
type MethodShare struct {
	Signature string
	Ops       uint64
	Share     float64 // fraction of total ops
}

// TopMethods returns every executed method ordered by descending dynamic
// instruction count, with its share of the total (Tables 3–4).
func (p *Profile) TopMethods() []MethodShare {
	out := make([]MethodShare, 0, len(p.perMethod))
	for sig := range p.perMethod {
		out = append(out, MethodShare{Signature: sig, Ops: p.OpsOf(sig)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].Signature < out[j].Signature
	})
	if p.totalOps > 0 {
		for i := range out {
			out[i].Share = float64(out[i].Ops) / float64(p.totalOps)
		}
	}
	return out
}

// MethodsFor90Percent returns the smallest prefix of TopMethods covering at
// least the given fraction (0.9 reproduces the dissertation's "90% methods",
// Table 1).
func (p *Profile) MethodsFor(fraction float64) []MethodShare {
	top := p.TopMethods()
	var cum float64
	for i, ms := range top {
		cum += ms.Share
		if cum >= fraction {
			return top[:i+1]
		}
	}
	return top
}

// GroupMix is a dynamic instruction-mix breakdown by instruction group.
type GroupMix map[bytecode.Group]uint64

// MixOf computes the dynamic group mix across the given method signatures
// (Table 2). Empty sigs means all methods.
func (p *Profile) MixOf(sigs []string) GroupMix {
	mix := make(GroupMix)
	use := func(counts *[256]uint64) {
		for b, c := range counts {
			if c == 0 {
				continue
			}
			op := bytecode.Opcode(b)
			if op.IsDefined() {
				mix[op.Group()] += c
			}
		}
	}
	if len(sigs) == 0 {
		for _, counts := range p.perMethod {
			use(counts)
		}
		return mix
	}
	for _, sig := range sigs {
		if counts, ok := p.perMethod[sig]; ok {
			use(counts)
		}
	}
	return mix
}

// Total sums all group counts.
func (g GroupMix) Total() uint64 {
	var t uint64
	for _, c := range g {
		t += c
	}
	return t
}

// QuickStats reports dynamic counts of base vs resolved _Quick storage
// instructions (Table 5).
type QuickStats struct {
	Base  uint64
	Quick uint64
}

// QuickPercent is the fraction of storage accesses executed in resolved
// form.
func (q QuickStats) QuickPercent() float64 {
	total := q.Base + q.Quick
	if total == 0 {
		return 0
	}
	return float64(q.Quick) / float64(total)
}

// QuickStats scans the profile for base-vs-_Quick storage instruction
// executions.
func (p *Profile) QuickStats() QuickStats {
	var qs QuickStats
	base := []bytecode.Opcode{bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield}
	quick := []bytecode.Opcode{bytecode.GetstaticQuick, bytecode.PutstaticQuick, bytecode.GetfieldQuick, bytecode.PutfieldQuick}
	for _, counts := range p.perMethod {
		for _, op := range base {
			qs.Base += counts[byte(op)]
		}
		for _, op := range quick {
			qs.Quick += counts[byte(op)]
		}
	}
	return qs
}
