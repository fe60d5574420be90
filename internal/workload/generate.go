package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// The dissertation's simulation population is ~1,605 methods spanning sizes
// from a few instructions to just under 1,000, with the Filter-1 subset
// (10 < size < 1000) showing mean 56 / median 29 instructions, ~4.5 local
// registers, ~3 forward branches and ~0.6 back branches per method
// (Tables 9, 13, 14). GeneratedMethods synthesizes a deterministic
// population with those distributions.

// GenConfig tunes the generated population.
type GenConfig struct {
	Seed  int64
	Count int
	// ClassSize is how many methods share one generated class (and its
	// static slots). Zero means a default of 64.
	ClassSize int
}

// profile weights segment selection to shape the method's static mix.
type profile struct {
	name                        string
	arith, float, storage, ctrl int
}

var profiles = []profile{
	{"arith", 38, 6, 28, 28},
	{"float", 16, 44, 22, 18},
	{"storage", 15, 5, 55, 25},
	{"control", 20, 8, 22, 50},
}

// Generate builds the population. Methods are grouped into classes named
// gen/GenNNN; all are static int-returning methods with no arguments so a
// single driver can execute every one of them.
func Generate(cfg GenConfig) []*classfile.Class {
	classes, _ := generate(cfg)
	return classes
}

// generate builds the population Generate returns, and also its methods
// in generation order, the order Corpus serves them in.
func generate(cfg GenConfig) ([]*classfile.Class, []*classfile.Method) {
	if cfg.Count <= 0 {
		return nil, nil
	}
	classSize := cfg.ClassSize
	if classSize <= 0 {
		classSize = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	asm := bytecode.NewAssembler()

	var classes []*classfile.Class
	methods := make([]*classfile.Method, 0, cfg.Count)
	var cur *classfile.Class
	var slab []classfile.Method // the class's methods, one allocation
	var pool *classfile.ConstantPool
	var statics, consts, dconsts []int

	for i := 0; i < cfg.Count; i++ {
		if i%classSize == 0 {
			n := min(classSize, cfg.Count-i)
			cur = &classfile.Class{
				Name:        padded("gen/Gen", len(classes), 3),
				Methods:     make(map[string]*classfile.Method, n),
				StaticSlots: 4,
			}
			slab = make([]classfile.Method, n)
			pool = classfile.NewConstantPool()
			statics = make([]int, cur.StaticSlots)
			for s := range statics {
				statics[s] = pool.AddFieldRef(classfile.FieldRef{
					Class: cur.Name, Name: fmt.Sprintf("s%d", s), Static: true, Slot: s,
				})
			}
			consts = []int{
				pool.AddInt(0x10001), pool.AddInt(9973), pool.AddInt(-40503),
			}
			dconsts = []int{
				pool.AddDouble(1.618033988749895), pool.AddDouble(2.718281828459045),
			}
			classes = append(classes, cur)
		}
		m := &slab[i%classSize]
		generateMethod(m, rng, asm, pool, statics, consts, dconsts, padded("m", i, 4))
		cur.Add(m)
		if err := classfile.Verify(m); err != nil {
			panic(fmt.Sprintf("workload: generated method invalid: %v", err))
		}
		methods = append(methods, m)
	}
	return classes, methods
}

// sampleSize draws a method size target reproducing the corpus shape: a
// large small-method tail, a lognormal-ish middle, and a few near-1000
// giants.
func sampleSize(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < 0.40: // tiny methods (below Filter 1)
		return 3 + rng.Intn(7)
	case r < 0.96: // the Filter-1 bulk, median ≈ 29
		// exponential tail approximates the observed skew
		v := 10 + int(rng.ExpFloat64()*24)
		if v > 900 {
			v = 900
		}
		return v
	case r < 0.99: // large
		return 200 + rng.Intn(500)
	default: // beyond Filter 1's upper bound
		return 1000 + rng.Intn(400)
	}
}

type genState struct {
	rng     *rand.Rand
	a       *bytecode.Assembler
	pool    *classfile.ConstantPool
	statics []int
	consts  []int // int constant-pool entries for ldc
	dconsts []int // double constant-pool entries for ldc2_w
	prof    profile

	nInt    int // int locals at 0..nInt-1
	nDouble int // double locals at nInt..nInt+nDouble-1
	arrLoc  int // int array register
	darrLoc int // double array register (-1 when absent)
	idxLoc  int // shared in-bounds array index register
	scratch int // first free register (loop counters)
	depth   int // loop nesting
	target  int
}

// padded renders prefix followed by n zero-padded to width digits, as
// fmt's "%0*d" would.
func padded(prefix string, n, width int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	var buf [32]byte
	b := append(buf[:0], prefix...)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

func (g *genState) intLocal() int    { return g.rng.Intn(g.nInt) }
func (g *genState) doubleLocal() int { return g.nInt + g.rng.Intn(g.nDouble) }

// generateMethod emits one synthetic method into m, reusing asm's buffers.
func generateMethod(m *classfile.Method, rng *rand.Rand, asm *bytecode.Assembler, pool *classfile.ConstantPool, statics, consts, dconsts []int, name string) {
	asm.Reset()
	g := &genState{
		rng:     rng,
		a:       asm,
		pool:    pool,
		statics: statics,
		consts:  consts,
		dconsts: dconsts,
		prof:    profiles[rng.Intn(len(profiles))],
		nInt:    2 + rng.Intn(4),
		nDouble: 1 + rng.Intn(3),
		target:  sampleSize(rng),
	}
	// Tiny methods (the sub-Filter-1 population) skip the array prologue:
	// they are the accessor-sized methods real benchmarks are full of.
	if g.target < 12 {
		g.nInt = 2
		g.a.PushInt(int64(rng.Intn(64) + 1)).IStore(0)
		g.a.PushInt(int64(rng.Intn(64) + 1)).IStore(1)
		for g.a.Len()+6 <= g.target {
			op := intBinOps[rng.Intn(3)] // iadd/isub/imul keep it 4 wide
			g.a.ILoad(0).ILoad(1).Op(op).IStore(0)
		}
		g.a.ILoad(0).Op(bytecode.Ireturn)
		code, err := g.a.Finish()
		if err != nil {
			panic(fmt.Sprintf("workload: generating %s: %v", name, err))
		}
		*m = classfile.Method{
			Name: name, ReturnsValue: true, MaxLocals: 2, Code: code, Pool: pool,
		}
		return
	}

	g.arrLoc = g.nInt + g.nDouble
	g.darrLoc = g.arrLoc + 1
	g.idxLoc = g.darrLoc + 1
	g.scratch = g.idxLoc + 1
	maxLocals := g.scratch + 3 // up to 3 nested loop counters

	// Prologue: deterministic initial state.
	for i := 0; i < g.nInt; i++ {
		g.a.PushInt(int64(rng.Intn(64) + 1)).IStore(i)
	}
	for i := 0; i < g.nDouble; i++ {
		if rng.Intn(2) == 0 {
			g.a.Op(bytecode.Dconst1)
		} else {
			g.a.Op(bytecode.Dconst0)
		}
		g.a.DStore(g.nInt + i)
	}
	g.a.PushInt(16).OpA(bytecode.Newarray, 10).AStore(g.arrLoc)
	g.a.PushInt(16).OpA(bytecode.Newarray, 7).AStore(g.darrLoc)
	g.a.PushInt(int64(rng.Intn(16))).IStore(g.idxLoc)

	for g.a.Len() < g.target {
		g.segment()
	}

	// Epilogue: fold an int local into the result.
	g.a.ILoad(g.intLocal()).Op(bytecode.Ireturn)

	code, err := g.a.Finish()
	if err != nil {
		panic(fmt.Sprintf("workload: generating %s: %v", name, err))
	}
	*m = classfile.Method{
		Name:         name,
		ReturnsValue: true,
		MaxLocals:    maxLocals,
		Code:         code,
		Pool:         pool,
	}
}

// segment emits one stack-neutral code segment chosen by the profile.
func (g *genState) segment() {
	total := g.prof.arith + g.prof.float + g.prof.storage + g.prof.ctrl
	r := g.rng.Intn(total)
	switch {
	case r < g.prof.arith:
		g.intExpr()
	case r < g.prof.arith+g.prof.float:
		g.floatExpr()
	case r < g.prof.arith+g.prof.float+g.prof.storage:
		g.storageOp()
	default:
		g.controlOp()
	}
}

var intBinOps = []bytecode.Opcode{
	bytecode.Iadd, bytecode.Isub, bytecode.Imul, bytecode.Iand,
	bytecode.Ior, bytecode.Ixor, bytecode.Ishl, bytecode.Iushr,
}

// intExpr: load 2-4 int operands, fold, store.
func (g *genState) intExpr() {
	n := 2 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		if g.rng.Intn(3) == 0 {
			g.a.PushInt(int64(g.rng.Intn(256)))
		} else {
			g.a.ILoad(g.intLocal())
		}
	}
	for i := 0; i < n-1; i++ {
		op := intBinOps[g.rng.Intn(len(intBinOps))]
		if op == bytecode.Ishl || op == bytecode.Iushr {
			// keep shift distances sane: mask the top operand first
			g.a.PushInt(7).Op(bytecode.Iand)
			if g.a.Len() >= g.target+8 { // shifts add 2 instrs; stay near target
				op = bytecode.Ixor
			}
		}
		g.a.Op(op)
	}
	if g.rng.Intn(8) == 0 {
		// guarded division: x / (y|1)
		g.a.ILoad(g.intLocal()).Op(bytecode.Iconst1).Op(bytecode.Ior).Op(bytecode.Idiv)
	}
	g.a.IStore(g.intLocal())
}

var dblBinOps = []bytecode.Opcode{bytecode.Dadd, bytecode.Dsub, bytecode.Dmul}

// floatExpr: double arithmetic chains with conversions, occasionally
// narrowing back into an int register.
func (g *genState) floatExpr() {
	n := 3 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(5) {
		case 0:
			g.a.Op(bytecode.Dconst1)
		case 1:
			g.a.ILoad(g.intLocal()).Op(bytecode.I2d)
		case 2:
			g.a.Ldc(g.dconsts[g.rng.Intn(len(g.dconsts))], true)
		default:
			g.a.DLoad(g.doubleLocal())
		}
	}
	for i := 0; i < n-1; i++ {
		g.a.Op(dblBinOps[g.rng.Intn(len(dblBinOps))])
	}
	if g.rng.Intn(4) == 0 {
		// narrow the result into an int register (float-conversion group)
		g.a.Op(bytecode.D2i).PushInt(1023).Op(bytecode.Iand).IStore(g.intLocal())
		return
	}
	g.a.DStore(g.doubleLocal())
}

// storageOp: a run of array element and static field accesses — clustered,
// as real benchmark storage traffic is.
func (g *genState) storageOp() {
	idx := func() { g.a.ILoad(g.idxLoc) }
	n := 2 + g.rng.Intn(3)
	for k := 0; k < n; k++ {
		switch g.rng.Intn(8) {
		case 0: // int array read into a register
			g.a.ALoad(g.arrLoc)
			idx()
			g.a.Op(bytecode.Iaload).IStore(g.intLocal())
		case 1: // int array write
			g.a.ALoad(g.arrLoc)
			idx()
			g.a.ILoad(g.intLocal()).Op(bytecode.Iastore)
		case 2: // double array read/modify/write
			g.a.ALoad(g.darrLoc)
			idx()
			g.a.ALoad(g.darrLoc)
			idx()
			g.a.Op(bytecode.Daload).DLoad(g.doubleLocal()).Op(bytecode.Dadd).Op(bytecode.Dastore)
		case 3, 4, 5: // static-to-static shuffle
			f1 := g.statics[g.rng.Intn(len(g.statics))]
			f2 := g.statics[g.rng.Intn(len(g.statics))]
			g.a.Field(bytecode.Getstatic, f1).Field(bytecode.Putstatic, f2)
		case 6: // static read into a register
			f := g.statics[g.rng.Intn(len(g.statics))]
			g.a.Field(bytecode.Getstatic, f).IStore(g.intLocal())
		default: // constant-pool load (unordered Method Area access)
			g.a.Ldc(g.consts[g.rng.Intn(len(g.consts))], false).IStore(g.intLocal())
		}
	}
	// keep the shared index register in bounds for the next cluster
	g.a.ILoad(g.idxLoc).Op(bytecode.Iconst1).Op(bytecode.Iadd).
		PushInt(15).Op(bytecode.Iand).IStore(g.idxLoc)
}

// controlOp: an if, an if/else, a bounded counted loop, or one of the
// dataflow-shaping constructs (merge expression / split consumption) that
// produce the small-but-nonzero merge and fan-out counts of Tables 10/12.
func (g *genState) controlOp() {
	switch {
	case g.depth < 2 && g.rng.Intn(5) == 0:
		g.loop()
	case g.rng.Intn(8) == 0:
		g.mergeExpr()
	case g.rng.Intn(8) == 0:
		g.splitConsume()
	case g.rng.Intn(2) == 0:
		g.ifOnly()
	default:
		g.ifElse()
	}
}

// mergeExpr emits the Figure 22 shape: both branch arms push a value that
// a single consumer pops after the join — a DataFlow merge, where one
// consumer side resolves to two producers.
func (g *genState) mergeExpr() {
	alt := g.a.NewLabel()
	end := g.a.NewLabel()
	x := g.intLocal()
	g.a.ILoad(x).PushInt(int64(g.rng.Intn(64))).
		BranchTo(cmpOps[g.rng.Intn(len(cmpOps))], alt)
	g.a.ILoad(x).ILoad(g.intLocal()).Op(bytecode.Iadd)
	g.a.BranchTo(bytecode.Goto, end)
	g.a.Bind(alt)
	g.a.ILoad(x).PushInt(int64(1 + g.rng.Intn(7))).Op(bytecode.Imul)
	g.a.Bind(end)
	g.a.IStore(g.intLocal())
}

// splitConsume pushes one value before a split and consumes it with a
// different instruction in each arm — giving the producer a fan-out of two
// (the multi-consumer capability TRIPS needed move instructions for).
func (g *genState) splitConsume() {
	alt := g.a.NewLabel()
	end := g.a.NewLabel()
	g.a.ILoad(g.intLocal()) // the shared producer
	g.a.ILoad(g.intLocal()).PushInt(int64(g.rng.Intn(64))).
		BranchTo(cmpOps[g.rng.Intn(len(cmpOps))], alt)
	g.a.PushInt(3).Op(bytecode.Iadd).IStore(g.intLocal())
	g.a.BranchTo(bytecode.Goto, end)
	g.a.Bind(alt)
	g.a.PushInt(5).Op(bytecode.Ixor).IStore(g.intLocal())
	g.a.Bind(end)
}

var cmpOps = []bytecode.Opcode{
	bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt,
	bytecode.IfIcmpge, bytecode.IfIcmpgt, bytecode.IfIcmple,
}

func (g *genState) ifOnly() {
	skip := g.a.NewLabel()
	g.a.ILoad(g.intLocal()).PushInt(int64(g.rng.Intn(64))).
		BranchTo(cmpOps[g.rng.Intn(len(cmpOps))], skip)
	g.body(1 + g.rng.Intn(2))
	g.a.Bind(skip)
}

func (g *genState) ifElse() {
	alt := g.a.NewLabel()
	end := g.a.NewLabel()
	g.a.ILoad(g.intLocal()).PushInt(int64(g.rng.Intn(64))).
		BranchTo(cmpOps[g.rng.Intn(len(cmpOps))], alt)
	g.body(1 + g.rng.Intn(2))
	g.a.BranchTo(bytecode.Goto, end)
	g.a.Bind(alt)
	g.body(1 + g.rng.Intn(2))
	g.a.Bind(end)
}

// loop emits a counted loop with 2–12 iterations.
func (g *genState) loop() {
	cnt := g.scratch + g.depth
	top := g.a.NewLabel()
	done := g.a.NewLabel()
	iters := 2 + g.rng.Intn(11)
	g.a.PushInt(0).IStore(cnt)
	g.a.Bind(top)
	g.a.ILoad(cnt).PushInt(int64(iters)).BranchTo(bytecode.IfIcmpge, done)
	g.depth++
	g.body(1 + g.rng.Intn(3))
	g.depth--
	g.a.Iinc(cnt, 1)
	g.a.BranchTo(bytecode.Goto, top)
	g.a.Bind(done)
}

// body emits n segments inside a control construct. Nested control is
// allowed but bounded: loops to depth 2, and conditionals anywhere (all
// segments are stack-neutral, so merges stay consistent).
func (g *genState) body(n int) {
	for i := 0; i < n; i++ {
		if g.rng.Intn(8) == 0 {
			if g.depth < 2 && g.rng.Intn(4) == 0 {
				g.loop()
			} else {
				g.ifOnly()
			}
			continue
		}
		total := g.prof.arith + g.prof.float + g.prof.storage
		r := g.rng.Intn(total)
		switch {
		case r < g.prof.arith:
			g.intExpr()
		case r < g.prof.arith+g.prof.float:
			g.floatExpr()
		default:
			g.storageOp()
		}
	}
}
