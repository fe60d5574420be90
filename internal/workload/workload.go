// Package workload provides the benchmark corpus standing in for the SPEC
// JVM98 / JVM2008 class files the dissertation analyzed (Chapter 5). It
// contains two populations:
//
//   - Named SPEC-analog methods: faithful bytecode re-creations of the hot
//     methods the paper identifies (Tables 3–4): scimark's nextDouble, FFT
//     transform/bitreverse, LU factor, SOR execute, sparse matmult, Monte
//     Carlo integrate; the crypto sha/mul/submul_1 kernels; compress;
//     string compare and shell sort; and control-flow-heavy scanners.
//     Each has a driver that executes it on the interpreting JVM so dynamic
//     instruction mixes can be gathered exactly as the paper gathered them.
//
//   - A generated population: a deterministic, seeded generator producing
//     valid, verified, terminating methods whose size/branch/register
//     distributions match the corpus statistics of Tables 9–14, filling the
//     ~1,600-method population the simulation studies sweep (Table 16).
package workload

import (
	"fmt"
	"sort"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/jvm"
)

// methodSpec describes a method under construction.
type methodSpec struct {
	Name      string
	Argc      int
	Instance  bool
	Returns   bool
	MaxLocals int
}

// build assembles a method; workload construction errors are programming
// errors, so it panics rather than returning an error.
func build(pool *classfile.ConstantPool, spec methodSpec, body func(a *bytecode.Assembler)) *classfile.Method {
	a := bytecode.NewAssembler()
	body(a)
	code, err := a.Finish()
	if err != nil {
		panic(fmt.Sprintf("workload: assembling %s: %v", spec.Name, err))
	}
	m := &classfile.Method{
		Name:         spec.Name,
		Argc:         spec.Argc,
		Instance:     spec.Instance,
		ReturnsValue: spec.Returns,
		MaxLocals:    spec.MaxLocals,
		Code:         code,
		Switches:     a.Switches(),
		Pool:         pool,
	}
	if err := classfile.Verify(m); err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return m
}

// Suite is a named benchmark: classes to register plus a driver that
// exercises the hot methods on a machine. Scale controls iteration counts so
// tests stay fast while profile shapes remain stable.
type Suite struct {
	Name    string
	Era     string // "SpecJvm2008" or "SpecJvm98" analog
	Classes []*classfile.Class
	// Run exercises the suite; the caller must have registered Classes.
	Run func(vm *jvm.Machine, scale int) error
	// HotMethods lists signatures expected to dominate the dynamic mix.
	HotMethods []string
}

// Register loads all of the suite's classes into the machine.
func (s *Suite) Register(vm *jvm.Machine) error {
	for _, c := range s.Classes {
		if err := vm.Register(c); err != nil {
			return fmt.Errorf("suite %s: %w", s.Name, err)
		}
	}
	return nil
}

// method looks a method up across the suite's classes, panicking when the
// suite is malformed (a programming error in this package).
func (s *Suite) method(class, name string) *classfile.Method {
	for _, c := range s.Classes {
		if c.Name == class {
			m, err := c.Method(name)
			if err != nil {
				panic(fmt.Sprintf("workload: %v", err))
			}
			return m
		}
	}
	panic(fmt.Sprintf("workload: suite %s has no class %s", s.Name, class))
}

// AllMethods flattens the suite's methods in deterministic order.
func (s *Suite) AllMethods() []*classfile.Method {
	var out []*classfile.Method
	for _, c := range s.Classes {
		names := make([]string, 0, len(c.Methods))
		for n := range c.Methods {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, c.Methods[n])
		}
	}
	return out
}
