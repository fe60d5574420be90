package workload

import (
	"javaflow/internal/classfile"
)

// AllSuites returns the complete benchmark roster: SciMark, crypto, both
// compress eras, and the SpecJvm98 analogs — the populations behind
// Tables 1–8 and 27–28.
func AllSuites() []*Suite {
	var out []*Suite
	out = append(out, SciMarkSuites()...)
	out = append(out, CryptoSuite())
	out = append(out, CompressSuites()...)
	out = append(out, Spec98Suites()...)
	return out
}

// Corpus assembles the full simulation population the Chapter-7 sweeps
// study: every named SPEC-analog method followed by the seeded generated
// corpus, methods within each generated class in generation order (Generate
// emits m0000, m0001, ... so insertion order is already signature order).
// Both experiments.Context and the jfserved daemon build their population
// here, so the two always agree method for method.
func Corpus(seed int64, genCount int) []*classfile.Method {
	methods := NamedMethods()
	for _, cls := range Generate(GenConfig{Seed: seed, Count: genCount}) {
		for _, n := range cls.MethodNames() {
			methods = append(methods, cls.Methods[n])
		}
	}
	return methods
}

// NamedMethods returns every hand-built SPEC-analog method, deduplicated by
// signature, in deterministic order.
func NamedMethods() []*classfile.Method {
	seen := make(map[string]bool)
	var out []*classfile.Method
	for _, s := range AllSuites() {
		for _, m := range s.AllMethods() {
			sig := m.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			out = append(out, m)
		}
	}
	return out
}
