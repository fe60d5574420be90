// Package javaflow is the public API of the JavaFlow reproduction: a Java
// DataFlow Machine that loads whole JVM bytecode methods into a tiled
// fabric of single-instruction nodes, resolves producer/consumer addresses
// with a distributed serial-network protocol, and executes them under a
// token-bundle model that maps control flow onto dataflow.
//
// The package re-exports the stable surface of the internal packages:
//
//   - Building methods: Assembler, ConstantPool, Method, Verify.
//   - Interpreting them (the baseline JVM substrate): JVM, Value.
//   - Deploying and simulating them on the fabric: Machine, Deployment,
//     Configurations, Result.
//   - Analyzing them: Analyze (static dataflow), Profile (dynamic mix).
//
// The paper's tables are regenerated by cmd/jfbench.
//
// Quickstart:
//
//	asm := javaflow.NewAssembler()
//	asm.ILoad(0).ILoad(1).Op(javaflow.OpIadd).Op(javaflow.OpIreturn)
//	code, _ := asm.Finish()
//	m := &javaflow.Method{Name: "add", Argc: 2, ReturnsValue: true,
//		MaxLocals: 2, Code: code, Pool: javaflow.NewConstantPool()}
//
//	machine := javaflow.NewMachine(javaflow.Configurations()[0])
//	dep, _ := machine.Deploy(m)
//	run, _ := dep.ExecuteBoth()
//	fmt.Printf("IPC %.3f\n", run.MeanIPC())
package javaflow

import (
	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/core"
	"javaflow/internal/dataflow"
	"javaflow/internal/fabric"
	"javaflow/internal/jvm"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// ---- Building methods ----

// Assembler builds bytecode method bodies with symbolic labels.
type Assembler = bytecode.Assembler

// Instruction is one decoded ByteCode instruction in linear-address form.
type Instruction = bytecode.Instruction

// Opcode is a JVM operation code.
type Opcode = bytecode.Opcode

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return bytecode.NewAssembler() }

// Commonly used opcodes, re-exported for example code. The full set lives
// in internal/bytecode.
const (
	OpIadd     = bytecode.Iadd
	OpImul     = bytecode.Imul
	OpIreturn  = bytecode.Ireturn
	OpReturn   = bytecode.Return
	OpGoto     = bytecode.Goto
	OpIfIcmpge = bytecode.IfIcmpge
)

// Method is a verified Java method.
type Method = classfile.Method

// ConstantPool is the per-class constant pool.
type ConstantPool = classfile.ConstantPool

// Class groups methods with their static storage.
type Class = classfile.Class

// FieldRef and MethodRef are resolution-complete symbol references.
type (
	FieldRef  = classfile.FieldRef
	MethodRef = classfile.MethodRef
)

// NewConstantPool returns an empty pool (index 0 reserved).
func NewConstantPool() *ConstantPool { return classfile.NewConstantPool() }

// NewClass returns an empty class.
func NewClass(name string) *Class { return classfile.NewClass(name) }

// Verify runs the GPP-side preparation/verification pass and computes
// MaxStack.
func Verify(m *Method) error { return classfile.Verify(m) }

// Disassemble renders a method body in JAVAP-like numbered form.
func Disassemble(code []Instruction) string { return bytecode.Disassemble(code) }

// ---- Interpreting (the baseline JVM substrate) ----

// JVM is the interpreting baseline machine with dynamic-mix profiling.
type JVM = jvm.Machine

// Value is a typed JVM runtime value.
type Value = jvm.Value

// Profile accumulates the Chapter 5 dynamic-mix statistics.
type Profile = jvm.Profile

// NewJVM returns an empty interpreter.
func NewJVM() *JVM { return jvm.NewMachine() }

// Int, Long, Float, Double and Null construct runtime values.
func Int(v int64) Value      { return jvm.Int(v) }
func Long(v int64) Value     { return jvm.Long(v) }
func Float(v float64) Value  { return jvm.Float(v) }
func Double(v float64) Value { return jvm.Double(v) }

// Null is the null reference.
var Null = jvm.Null

// ---- The DataFlow machine ----

// Machine is a configured JavaFlow machine.
type Machine = core.Machine

// Deployment is a method resident in the fabric, ready to execute.
type Deployment = core.Deployment

// Config describes one machine configuration (Table 15).
type Config = sim.Config

// Result reports one simulated execution.
type Result = sim.Result

// MethodRun pairs both branch-policy executions.
type MethodRun = sim.MethodRun

// Runner sweeps method populations across configurations.
type Runner = sim.Runner

// BranchPolicy selects the BP-1/BP-2 branch methodology.
type BranchPolicy = sim.BranchPolicy

// BP1 and BP2 are the two studied branch policies.
const (
	BP1 = sim.BP1
	BP2 = sim.BP2
)

// Fabric describes fabric geometry; ConcurrentFabric is the goroutine-per-
// node runtime.
type (
	Fabric           = fabric.Fabric
	ConcurrentFabric = fabric.ConcurrentFabric
	Placement        = fabric.Placement
	Resolution       = fabric.Resolution
	NodeKind         = fabric.NodeKind
)

// Node-kind patterns for custom fabrics.
var (
	PatternCompact = fabric.PatternCompact
	PatternSparse  = fabric.PatternSparse
	PatternHetero  = fabric.PatternHetero
)

// NewMachine builds a machine for a configuration.
func NewMachine(cfg Config) *Machine { return core.NewMachine(cfg) }

// NewFabric builds a fabric geometry.
func NewFabric(width int, pattern []NodeKind) *Fabric {
	return fabric.NewFabric(width, pattern)
}

// Configurations returns the six studied configurations (Table 15):
// Baseline, Compact10, Compact4, Compact2, Sparse2, Hetero2.
func Configurations() []Config { return sim.Configurations() }

// DescribeTokenBundle renders the Figure 23 token bundle for a method.
func DescribeTokenBundle(m *Method) string { return core.DescribeTokenBundle(m) }

// ---- Analysis ----

// DataflowAnalysis is the static producer/consumer analysis of a method.
type DataflowAnalysis = dataflow.Analysis

// Analyze computes the static dataflow analysis (arcs, fan-out, merges,
// jump statistics) of a verified method.
func Analyze(m *Method) (*DataflowAnalysis, error) { return dataflow.Analyze(m) }

// ---- Workloads ----

// Suite is a SPEC-analog benchmark with a driver.
type Suite = workload.Suite

// Suites returns the full SPEC-analog benchmark roster.
func Suites() []*Suite { return workload.AllSuites() }

// NamedMethods returns every hand-built SPEC-analog hot method.
func NamedMethods() []*Method { return workload.NamedMethods() }

// GenerateMethods builds the deterministic synthetic population used by the
// simulation studies.
func GenerateMethods(seed int64, count int) []*Class {
	return workload.Generate(workload.GenConfig{Seed: seed, Count: count})
}
