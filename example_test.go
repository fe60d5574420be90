package javaflow_test

import (
	"fmt"
	"log"
	"time"

	"javaflow"
)

// sumMethod assembles and verifies
//
//	int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
//
// the method the quickstart and the public API tests run.
func sumMethod() (*javaflow.Method, error) {
	asm := javaflow.NewAssembler()
	asm.PushInt(0).IStore(1).
		PushInt(0).IStore(2).
		Label("loop").
		ILoad(2).ILoad(0).
		Branch(javaflow.OpIfIcmpge, "done").
		ILoad(1).ILoad(2).Op(javaflow.OpIadd).IStore(1).
		Iinc(2, 1).
		Branch(javaflow.OpGoto, "loop").
		Label("done").
		ILoad(1).Op(javaflow.OpIreturn)
	code, err := asm.Finish()
	if err != nil {
		return nil, err
	}
	m := &javaflow.Method{
		Name: "sum", Class: "Quickstart",
		Argc: 1, ReturnsValue: true, MaxLocals: 3,
		Code: code, Pool: javaflow.NewConstantPool(),
	}
	return m, javaflow.Verify(m)
}

// Assemble a small Java method, verify it, interpret it on the baseline
// JVM, then deploy it to the JavaFlow DataFlow Fabric and simulate its
// execution on every configuration.
func Example_quickstart() {
	m, err := sumMethod()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: %d instructions, max stack %d\n\n%s\n",
		len(m.Code), m.MaxStack, javaflow.Disassemble(m.Code))

	// 1. Run it on the interpreting JVM (the baseline substrate).
	vm := javaflow.NewJVM()
	cls := javaflow.NewClass(m.Class)
	cls.Add(m)
	if err := vm.Register(cls); err != nil {
		log.Fatal(err)
	}
	result, err := vm.Invoke(m, javaflow.Int(100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interpreter: sum(100) = %d (executed %d bytecodes)\n\n",
		result.I, vm.Profile.TotalOps())

	// 2. Deploy to each DataFlow Fabric configuration and simulate.
	fmt.Println("dataflow fabric simulation:")
	var base float64
	for _, cfg := range javaflow.Configurations() {
		dep, err := javaflow.NewMachine(cfg).Deploy(m)
		if err != nil {
			log.Fatal(err)
		}
		run, err := dep.ExecuteBoth()
		if err != nil {
			log.Fatal(err)
		}
		ipc := run.MeanIPC()
		if cfg.Name == "Baseline" {
			base = ipc
		}
		fmt.Printf("  %-10s IPC %.3f  FoM %3.0f%%  coverage %3.0f%%\n",
			cfg.Name, ipc, 100*ipc/base, 100*run.BP1.Coverage())
	}
	// Output:
	// verified: 15 instructions, max stack 2
	//
	//    0: iconst_0
	//    1: istore_1
	//    2: iconst_0
	//    3: istore_2
	//    4: iload_2
	//    5: iload_0
	//    6: if_icmpge -> #13
	//    7: iload_1
	//    8: iload_2
	//    9: iadd
	//   10: istore_1
	//   11: iinc 2, 1
	//   12: goto -> #4
	//   13: iload_1
	//   14: ireturn
	//
	// interpreter: sum(100) = 4950 (executed 909 bytecodes)
	//
	// dataflow fabric simulation:
	//   Baseline   IPC 0.838  FoM 100%  coverage  60%
	//   Compact10  IPC 0.640  FoM  76%  coverage  60%
	//   Compact4   IPC 0.558  FoM  67%  coverage  60%
	//   Compact2   IPC 0.465  FoM  55%  coverage  60%
	//   Sparse2    IPC 0.295  FoM  35%  coverage  60%
	//   Hetero2    IPC 0.314  FoM  37%  coverage  60%
}

// deployAndDescribe prints the dataflow m resolves to on Compact10.
func deployAndDescribe(title string, m *javaflow.Method) {
	fmt.Println("=== " + title + " ===")
	dep, err := javaflow.NewMachine(javaflow.Configurations()[1]).Deploy(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dep.DescribeResolution())
}

// Reproduce the Figure 21 simple example and the Figure 22 dataflow-merge
// example: the serial-network needs-up protocol turns stack-oriented
// ByteCode into producer/consumer dataflow addresses, including a merge
// where both branch arms feed the same consumer side.
func Example_addressResolution() {
	// Figure 21: receive 3 register values, add them, store to register 4.
	asm := javaflow.NewAssembler()
	asm.ILoad(1).ILoad(2).ILoad(3).
		Op(javaflow.OpIadd).Op(javaflow.OpIadd).
		IStore(4).
		Op(javaflow.OpReturn)
	code, err := asm.Finish()
	if err != nil {
		log.Fatal(err)
	}
	simple := &javaflow.Method{
		Name: "figure21", Class: "Demo", MaxLocals: 5,
		Code: code, Pool: javaflow.NewConstantPool(),
	}
	if err := javaflow.Verify(simple); err != nil {
		log.Fatal(err)
	}
	deployAndDescribe("Figure 21: simple address resolution", simple)

	// Figure 22: a dataflow merge. Both arms of a conditional push the
	// value consumed at the join (side 1 of the istore receives data from
	// two producers, tagged with branch IDs during resolution).
	asm = javaflow.NewAssembler()
	asm.ILoad(0).
		PushInt(10).
		Branch(javaflow.OpIfIcmpge, "else").
		ILoad(0).ILoad(0).Op(javaflow.OpImul). // then: x*x
		Branch(javaflow.OpGoto, "join").
		Label("else").
		ILoad(0).PushInt(1).Op(javaflow.OpIadd). // else: x+1
		Label("join").
		IStore(1).
		Op(javaflow.OpReturn)
	code, err = asm.Finish()
	if err != nil {
		log.Fatal(err)
	}
	merge := &javaflow.Method{
		Name: "figure22", Class: "Demo", Argc: 1, MaxLocals: 2,
		Code: code, Pool: javaflow.NewConstantPool(),
	}
	if err := javaflow.Verify(merge); err != nil {
		log.Fatal(err)
	}
	deployAndDescribe("Figure 22: dataflow merge resolution", merge)

	// The static analyzer agrees with the distributed protocol.
	an, err := javaflow.Analyze(merge)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static analysis: %d arcs, %d merges, %d back merges (always 0)\n",
		len(an.Arcs), an.Merges, an.BackMerges)
	// Output:
	// === Figure 21: simple address resolution ===
	// dataflow resolution of Demo.figure21/0 (7 instructions):
	//   (0)   0 iload_1              >> 4,1 <<  pop=0 push=1  local-read
	//   (0)   1 iload_2              >> 3,1 <<  pop=0 push=1  local-read
	//   (0)   2 iload_3              >> 3,2 <<  pop=0 push=1  local-read
	//   (0)   3 iadd                 >> 4,2 <<  pop=2 push=1  int-arith
	//   (0)   4 iadd                 >> 5,1 <<  pop=2 push=1  int-arith
	//   (0)   5 istore 4              pop=1 push=0  local-write
	//   (0)   6 return                pop=0 push=0  return
	//   merges=0 backMerges=0 maxQUp=3 resolutionCycles=14
	//
	// === Figure 22: dataflow merge resolution ===
	// dataflow resolution of Demo.figure22/1 (12 instructions):
	//   (0)   0 iload_0              >> 2,1 <<  pop=0 push=1  local-read
	//   (0)   1 bipush 10            >> 2,2 <<  pop=0 push=1  move
	//   (+)   2 if_icmpge -> #7      [taken 7]  pop=2 push=0  control
	//   (0)   3 iload_0              >> 5,1 <<  pop=0 push=1  local-read
	//   (0)   4 iload_0              >> 5,2 <<  pop=0 push=1  local-read
	//   (0)   5 imul                 >> 10,M1 <<  pop=2 push=1  int-arith
	//   (+)   6 goto -> #10          [taken 10]  pop=0 push=0  control
	//   (0)   7 iload_0              >> 9,1 <<  pop=0 push=1  local-read
	//   (0)   8 iconst_1             >> 9,2 <<  pop=0 push=1  move
	//   (0)   9 iadd                 >> 10,M1 <<  pop=2 push=1  int-arith
	//   (0)  10 istore_1              pop=1 push=0  local-write
	//   (0)  11 return                pop=0 push=0  return
	//   merges=1 backMerges=0 maxQUp=2 resolutionCycles=26
	//
	// static analysis: 8 arcs, 1 merges, 0 back merges (always 0)
}

// Run every benchmark suite on the instrumented interpreter and reproduce
// the Chapter 5 observations: a handful of methods dominate each
// benchmark, and storage instructions execute almost entirely in resolved
// _Quick form. The static dataflow summary shows the no-back-merge
// property that makes whole-method residency possible.
func Example_specMix() {
	for _, suite := range javaflow.Suites() {
		vm := javaflow.NewJVM()
		if err := suite.Register(vm); err != nil {
			log.Fatal(err)
		}
		if err := suite.Run(vm, 1); err != nil {
			log.Fatal(err)
		}

		p := vm.Profile
		hot := p.MethodsFor(0.90)
		fmt.Printf("%-22s %-12s %12d ops  %2d methods, %d cover 90%%\n",
			suite.Name, suite.Era, p.TotalOps(), p.MethodsExecuted(), len(hot))
		for i, ms := range p.TopMethods() {
			if i >= 3 {
				break
			}
			fmt.Printf("    %5.1f%%  %s\n", 100*ms.Share, ms.Signature)
		}
		if qs := p.QuickStats(); qs.Base+qs.Quick > 0 {
			fmt.Printf("    storage accesses: %.1f%% executed as _Quick\n",
				100*qs.QuickPercent())
		}
	}

	named := javaflow.NamedMethods()
	var arcs, merges, backMerges int
	for _, m := range named {
		an, err := javaflow.Analyze(m)
		if err != nil {
			log.Fatal(err)
		}
		arcs += len(an.Arcs)
		merges += an.Merges
		backMerges += an.BackMerges
	}
	fmt.Printf("\nstatic dataflow across %d named methods: %d arcs, %d merges, %d back merges\n",
		len(named), arcs, merges, backMerges)
	// Output:
	// scimark.fft.large      SpecJvm2008        101510 ops   3 methods, 2 cover 90%
	//      82.9%  scimark/fft/FFT.transform_internal/2
	//      13.6%  scimark/fft/FFT.bitreverse/1
	//       3.6%  scimark/fft/FFT.inverse/1
	// scimark.lu.large       SpecJvm2008         13292 ops   1 methods, 1 cover 90%
	//     100.0%  scimark/lu/LU.factor/2
	// scimark.sor.large      SpecJvm2008         70123 ops   1 methods, 1 cover 90%
	//     100.0%  scimark/sor/SOR.execute/3
	// scimark.sparse.large   SpecJvm2008         22231 ops   1 methods, 1 cover 90%
	//     100.0%  scimark/sparse/SparseCompRow.matmult/6
	// scimark.monte_carlo    SpecJvm2008        222728 ops   2 methods, 2 cover 90%
	//      80.4%  scimark/utils/Random.nextDouble/0
	//      19.6%  scimark/monte_carlo/MonteCarlo.integrate/2
	//     storage accesses: 100.0% executed as _Quick
	// crypto.signverify      SpecJvm2008        102400 ops   3 methods, 2 cover 90%
	//      57.1%  gnu/java/security/hash/Sha160.sha/2
	//      39.1%  gnu/java/math/MPN.mul/5
	//       3.8%  gnu/java/math/MPN.submul_1/4
	// compress               SpecJvm2008        432068 ops   4 methods, 4 cover 90%
	//      31.8%  spec/benchmarks/compress/Compressor.compress/4
	//      27.8%  spec/benchmarks/compress/Compressor.decompress/5
	//      23.0%  spec/benchmarks/compress/Compressor.getbyte/1
	// _201_compress          SpecJvm98          432068 ops   4 methods, 4 cover 90%
	//      31.8%  spec/benchmarks/compress/Compressor.compress/4
	//      27.8%  spec/benchmarks/compress/Compressor.decompress/5
	//      23.0%  spec/benchmarks/compress/Compressor.getbyte/1
	// _209_db                SpecJvm98           53577 ops   2 methods, 1 cover 90%
	//      97.5%  spec/benchmarks/_209_db/Database.shell_sort/1
	//       2.5%  spec/benchmarks/_209_db/Database.compareTo/2
	//     storage accesses: 97.6% executed as _Quick
	// _202_jess              SpecJvm98            8430 ops   2 methods, 2 cover 90%
	//      71.1%  spec/benchmarks/_202_jess/jess/Token.data_equals/2
	//      28.9%  spec/benchmarks/_202_jess/jess/Token.runTestsVaryRight/3
	// _222_mpegaudio         SpecJvm98           94816 ops   1 methods, 1 cover 90%
	//     100.0%  spec/benchmarks/_222_mpegaudio/q.l/3
	// _227_mtrt              SpecJvm98          262064 ops   2 methods, 2 cover 90%
	//      85.8%  spec/benchmarks/_205_raytrace/OctNode.Intersect/2
	//      14.2%  spec/benchmarks/_205_raytrace/OctNodeTree.FindTreeNode/2
	// _228_jack              SpecJvm98           30643 ops   1 methods, 1 cover 90%
	//     100.0%  spec/benchmarks/_228_jack/TokenEngine.getNextTokenFromStream/1
	//
	// static dataflow across 23 named methods: 1284 arcs, 0 merges, 0 back merges
}

// Run a population of methods through every machine configuration and
// print the Figure-of-Merit ladder: a sparse heterogeneous fabric retains
// roughly 40% of the collapsed-baseline IPC while using far simpler nodes.
// Then load and resolve five methods on the concurrent fabric (a goroutine
// per Instruction Node, channels for the serial networks, purely local
// decisions), which places and resolves them as the deterministic
// resolver does.
func Example_heteroSweep() {
	// Population: the named SPEC-analog hot methods plus a slice of the
	// generated corpus.
	methods := javaflow.NamedMethods()
	for _, cls := range javaflow.GenerateMethods(7, 200) {
		for _, name := range cls.MethodNames() {
			methods = append(methods, cls.Methods[name])
		}
	}
	fmt.Printf("population: %d methods\n\n", len(methods))

	runner := &javaflow.Runner{MaxMeshCycles: 300_000}
	var baseIPC map[string]float64
	fmt.Println("Config      n    IPC-mean  FoM    Parallel>=2  Nodes/Inst")
	for _, cfg := range javaflow.Configurations() {
		cr, err := runner.RunAll(cfg, methods)
		if err != nil {
			log.Fatal(err)
		}
		if cfg.Name == "Baseline" {
			baseIPC = make(map[string]float64)
			for _, run := range cr.Runs {
				baseIPC[run.Signature] = run.MeanIPC()
			}
		}
		var fomSum float64
		var fomN int
		for _, run := range cr.Runs {
			if b := baseIPC[run.Signature]; b > 0 {
				fomSum += run.MeanIPC() / b
				fomN++
			}
		}
		fmt.Printf("%-10s %4d  %.3f     %3.0f%%   %3.0f%%         %.2f\n",
			cfg.Name, len(cr.Runs), cr.IPCSummary().Mean, 100*fomSum/float64(fomN),
			100*cr.ParallelismMean(), cr.RatioSummary().Mean)
	}

	fmt.Println("\nconcurrent goroutine-per-node fabric (self-organizing load + resolution):")
	conc := &javaflow.ConcurrentFabric{
		Fabric:  javaflow.NewFabric(10, javaflow.PatternHetero),
		Timeout: 30 * time.Second,
	}
	for _, m := range javaflow.NamedMethods()[:5] {
		placement, targets, err := conc.LoadAndResolve(m)
		if err != nil {
			log.Fatal(err)
		}
		nArcs := 0
		for _, ts := range targets {
			nArcs += len(ts)
		}
		fmt.Printf("  %-55s %3d insts over %3d nodes, %3d arcs resolved\n",
			m.Signature(), len(m.Code), placement.MaxNode, nArcs)
	}
	// Output:
	// population: 223 methods
	//
	// Config      n    IPC-mean  FoM    Parallel>=2  Nodes/Inst
	// Baseline    222  0.824     100%    52%         1.00
	// Compact10   222  0.730      89%    47%         1.00
	// Compact4    222  0.685      84%    46%         1.00
	// Compact2    222  0.592      73%    37%         1.00
	// Sparse2     222  0.353      44%    22%         1.92
	// Hetero2     222  0.396      49%    23%         2.53
	//
	// concurrent goroutine-per-node fabric (self-organizing load + resolution):
	//   scimark/fft/FFT.bitreverse/1                             86 insts over 167 nodes,  63 arcs resolved
	//   scimark/fft/FFT.inverse/1                                30 insts over  77 nodes,  21 arcs resolved
	//   scimark/fft/FFT.transform_internal/2                    261 insts over 627 nodes, 205 arcs resolved
	//   scimark/utils/Random.nextDouble/0                        55 insts over 137 nodes,  42 arcs resolved
	//   scimark/lu/LU.factor/2                                  152 insts over 347 nodes, 110 arcs resolved
}
