package workload

import (
	"fmt"
	"math"
	"math/rand"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/jvm"
)

// Random instance field slots (class scimark/utils/Random).
const (
	randFieldM = 0 // int[] m
	randFieldI = 1 // int i
	randFieldJ = 2 // int j
)

// randM1 and randM2 are the SciMark lagged-Fibonacci generator constants.
const (
	randM1 = (1 << 30) + ((1 << 30) - 1) // 2^31 - 1
	randM2 = 1 << 16
)

// RandomClass builds the scimark/utils/Random class whose nextDouble() is
// the single hottest method across the paper's SciMark benchmarks
// (Tables 3, 27; Figures 27–31 analyze exactly this method).
func RandomClass() *classfile.Class {
	pool := classfile.NewConstantPool()
	fM := pool.AddFieldRef(classfile.FieldRef{Class: "scimark/utils/Random", Name: "m", Slot: randFieldM})
	fI := pool.AddFieldRef(classfile.FieldRef{Class: "scimark/utils/Random", Name: "i", Slot: randFieldI})
	fJ := pool.AddFieldRef(classfile.FieldRef{Class: "scimark/utils/Random", Name: "j", Slot: randFieldJ})
	cM1 := pool.AddInt(randM1)
	cDM1 := pool.AddDouble(1.0 / float64(randM1))

	// double nextDouble():
	//   k = m[i] - m[j]; if (k < 0) k += m1; m[j] = k;
	//   if (i == 0) i = 16; else i--;
	//   if (j == 0) j = 16; else j--;
	//   return dm1 * (double) k;
	nextDouble := build(pool, methodSpec{
		Name: "nextDouble", Instance: true, Returns: true, MaxLocals: 2,
	}, func(a *bytecode.Assembler) {
		a.ALoad(0).Field(bytecode.Getfield, fM).
			ALoad(0).Field(bytecode.Getfield, fI).
			Op(bytecode.Iaload).
			ALoad(0).Field(bytecode.Getfield, fM).
			ALoad(0).Field(bytecode.Getfield, fJ).
			Op(bytecode.Iaload).
			Op(bytecode.Isub).
			IStore(1).
			ILoad(1).Branch(bytecode.Ifge, "nonneg").
			ILoad(1).Ldc(cM1, false).Op(bytecode.Iadd).IStore(1).
			Label("nonneg").
			ALoad(0).Field(bytecode.Getfield, fM).
			ALoad(0).Field(bytecode.Getfield, fJ).
			ILoad(1).
			Op(bytecode.Iastore).
			// i bookkeeping
			ALoad(0).Field(bytecode.Getfield, fI).
			Branch(bytecode.Ifne, "deci").
			ALoad(0).PushInt(16).Field(bytecode.Putfield, fI).
			Branch(bytecode.Goto, "jpart").
			Label("deci").
			ALoad(0).
			ALoad(0).Field(bytecode.Getfield, fI).Op(bytecode.Iconst1).Op(bytecode.Isub).
			Field(bytecode.Putfield, fI).
			Label("jpart").
			// j bookkeeping
			ALoad(0).Field(bytecode.Getfield, fJ).
			Branch(bytecode.Ifne, "decj").
			ALoad(0).PushInt(16).Field(bytecode.Putfield, fJ).
			Branch(bytecode.Goto, "ret").
			Label("decj").
			ALoad(0).
			ALoad(0).Field(bytecode.Getfield, fJ).Op(bytecode.Iconst1).Op(bytecode.Isub).
			Field(bytecode.Putfield, fJ).
			Label("ret").
			Ldc(cDM1, true).
			ILoad(1).Op(bytecode.I2d).
			Op(bytecode.Dmul).
			Op(bytecode.Dreturn)
	})

	c := classfile.NewClass("scimark/utils/Random")
	c.InstanceSlots = 3
	c.Add(nextDouble)
	return c
}

// NewRandom allocates and seeds a Random instance using the SciMark
// initialization algorithm, so nextDouble() streams match ReferenceRandom.
func NewRandom(vm *jvm.Machine, seed int64) (jvm.Value, error) {
	obj, err := vm.AllocInstance("scimark/utils/Random")
	if err != nil {
		return jvm.Null, err
	}
	m := seedArray(seed)
	if err := vm.SetField(obj, randFieldM, vm.NewIntArray(m)); err != nil {
		return jvm.Null, err
	}
	if err := vm.SetField(obj, randFieldI, jvm.Int(4)); err != nil {
		return jvm.Null, err
	}
	if err := vm.SetField(obj, randFieldJ, jvm.Int(16)); err != nil {
		return jvm.Null, err
	}
	return obj, nil
}

// seedArray reproduces SciMark Random.initialize().
func seedArray(seed int64) []int64 {
	jseed := seed
	if jseed < 0 {
		jseed = -jseed
	}
	if jseed > randM1 {
		jseed = randM1
	}
	if jseed%2 == 0 {
		jseed--
	}
	k0 := int64(9069 % randM2)
	k1 := int64(9069 / randM2)
	j0 := jseed % randM2
	j1 := jseed / randM2
	m := make([]int64, 17)
	for iloop := 0; iloop < 17; iloop++ {
		jseed = j0 * k0
		j1 = (jseed/randM2 + j0*k1 + j1*k0) % (randM2 / 2)
		j0 = jseed % randM2
		m[iloop] = j0 + randM2*j1
	}
	return m
}

// ReferenceRandom is the Go-side oracle for the bytecode nextDouble().
type ReferenceRandom struct {
	m    []int64
	i, j int
}

// NewReferenceRandom seeds the oracle identically to NewRandom.
func NewReferenceRandom(seed int64) *ReferenceRandom {
	return &ReferenceRandom{m: seedArray(seed), i: 4, j: 16}
}

// NextDouble advances the oracle.
func (r *ReferenceRandom) NextDouble() float64 {
	k := r.m[r.i] - r.m[r.j]
	if k < 0 {
		k += randM1
	}
	r.m[r.j] = k
	if r.i == 0 {
		r.i = 16
	} else {
		r.i--
	}
	if r.j == 0 {
		r.j = 16
	} else {
		r.j--
	}
	return 1.0 / float64(randM1) * float64(k)
}

// FFTClass builds scimark/fft/FFT with transform_internal, bitreverse and
// inverse — the three hot methods of scimark.fft.large (Table 3 reports
// transform_internal alone at 87% of the benchmark's operations).
func FFTClass() *classfile.Class {
	pool := classfile.NewConstantPool()
	sinRef := pool.AddMethodRef(classfile.MethodRef{
		Class: "java/lang/Math", Name: "sin", Argc: 1, ReturnsValue: true})
	bitrevRef := pool.AddMethodRef(classfile.MethodRef{
		Class: "scimark/fft/FFT", Name: "bitreverse", Argc: 1})
	transformRef := pool.AddMethodRef(classfile.MethodRef{
		Class: "scimark/fft/FFT", Name: "transform_internal", Argc: 2})
	cTwo := pool.AddDouble(2.0)
	cPI := pool.AddDouble(math.Pi)

	// void bitreverse(double[] data)
	// locals: 0=data 1=n 2=nm1 3=i 4=j 5=ii 6=jj 7=k 8=tmp
	bitreverse := build(pool, methodSpec{
		Name: "bitreverse", Argc: 1, MaxLocals: 9,
	}, func(a *bytecode.Assembler) {
		a.ALoad(0).Op(bytecode.Arraylength).PushInt(2).Op(bytecode.Idiv).IStore(1).
			ILoad(1).Op(bytecode.Iconst1).Op(bytecode.Isub).IStore(2).
			PushInt(0).IStore(3).
			PushInt(0).IStore(4).
			Label("loop").
			ILoad(3).ILoad(2).Branch(bytecode.IfIcmpge, "done").
			ILoad(3).Op(bytecode.Iconst1).Op(bytecode.Ishl).IStore(5).
			ILoad(4).Op(bytecode.Iconst1).Op(bytecode.Ishl).IStore(6).
			ILoad(1).Op(bytecode.Iconst1).Op(bytecode.Ishr).IStore(7).
			ILoad(3).ILoad(4).Branch(bytecode.IfIcmpge, "noswap").
			// swap data[ii] <-> data[jj]
			ALoad(0).ILoad(5).Op(bytecode.Daload).DStore(8).
			ALoad(0).ILoad(5).ALoad(0).ILoad(6).Op(bytecode.Daload).Op(bytecode.Dastore).
			ALoad(0).ILoad(6).DLoad(8).Op(bytecode.Dastore).
			// swap data[ii+1] <-> data[jj+1]
			ALoad(0).ILoad(5).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).DStore(8).
			ALoad(0).ILoad(5).Op(bytecode.Iconst1).Op(bytecode.Iadd).
			ALoad(0).ILoad(6).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).
			Op(bytecode.Dastore).
			ALoad(0).ILoad(6).Op(bytecode.Iconst1).Op(bytecode.Iadd).DLoad(8).Op(bytecode.Dastore).
			Label("noswap").
			Label("wloop").
			ILoad(7).ILoad(4).Branch(bytecode.IfIcmpgt, "wdone").
			ILoad(4).ILoad(7).Op(bytecode.Isub).IStore(4).
			ILoad(7).Op(bytecode.Iconst1).Op(bytecode.Ishr).IStore(7).
			Branch(bytecode.Goto, "wloop").
			Label("wdone").
			ILoad(4).ILoad(7).Op(bytecode.Iadd).IStore(4).
			Iinc(3, 1).
			Branch(bytecode.Goto, "loop").
			Label("done").
			Op(bytecode.Return)
	})

	// void transform_internal(double[] data, int direction)
	// locals: 0=data 1=direction 2=n 3=logn 4=bit 5=dual 6=wr 7=wi
	//         8=s 9=theta/t 10=s2 11=b 12=i 13=j 14=wdr 15=wdi
	//         16=a 17=z1r 18=z1i 19=tmp
	transform := build(pool, methodSpec{
		Name: "transform_internal", Argc: 2, MaxLocals: 20,
	}, func(a *bytecode.Assembler) {
		butterfly := func(a *bytecode.Assembler) {
			// data[j]   = data[i]   - wdr ; data[j+1] = data[i+1] - wdi
			// data[i]  += wdr       ; data[i+1] += wdi
			a.ALoad(0).ILoad(13).
				ALoad(0).ILoad(12).Op(bytecode.Daload).DLoad(14).Op(bytecode.Dsub).
				Op(bytecode.Dastore).
				ALoad(0).ILoad(13).Op(bytecode.Iconst1).Op(bytecode.Iadd).
				ALoad(0).ILoad(12).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).
				DLoad(15).Op(bytecode.Dsub).
				Op(bytecode.Dastore).
				ALoad(0).ILoad(12).
				ALoad(0).ILoad(12).Op(bytecode.Daload).DLoad(14).Op(bytecode.Dadd).
				Op(bytecode.Dastore).
				ALoad(0).ILoad(12).Op(bytecode.Iconst1).Op(bytecode.Iadd).
				ALoad(0).ILoad(12).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).
				DLoad(15).Op(bytecode.Dadd).
				Op(bytecode.Dastore)
		}
		bumpB := func(a *bytecode.Assembler) {
			// b += 2 * dual
			a.ILoad(11).PushInt(2).ILoad(5).Op(bytecode.Imul).Op(bytecode.Iadd).IStore(11)
		}

		a.ALoad(0).Op(bytecode.Arraylength).PushInt(2).Op(bytecode.Idiv).IStore(2).
			ILoad(2).Op(bytecode.Iconst1).Branch(bytecode.IfIcmpne, "go").
			Op(bytecode.Return).
			Label("go").
			// logn = log2(n)
			PushInt(0).IStore(3).
			PushInt(1).IStore(4).
			Label("lgl").
			ILoad(4).ILoad(2).Branch(bytecode.IfIcmpge, "lgdone").
			ILoad(4).ILoad(4).Op(bytecode.Iadd).IStore(4).
			Iinc(3, 1).
			Branch(bytecode.Goto, "lgl").
			Label("lgdone").
			ALoad(0).Call(bytecode.Invokestatic, bitrevRef, 1, false).
			// for (bit = 0, dual = 1; bit < logn; bit++, dual *= 2)
			PushInt(0).IStore(4).
			PushInt(1).IStore(5).
			Label("bitloop").
			ILoad(4).ILoad(3).Branch(bytecode.IfIcmpge, "bitdone").
			// w = 1 + 0i
			Op(bytecode.Dconst1).DStore(6).
			Op(bytecode.Dconst0).DStore(7).
			// theta = 2*direction*PI / (2*dual)
			Ldc(cTwo, true).ILoad(1).Op(bytecode.I2d).Op(bytecode.Dmul).
			Ldc(cPI, true).Op(bytecode.Dmul).
			Ldc(cTwo, true).ILoad(5).Op(bytecode.I2d).Op(bytecode.Dmul).
			Op(bytecode.Ddiv).DStore(9).
			// s = sin(theta)
			DLoad(9).Call(bytecode.Invokestatic, sinRef, 1, true).DStore(8).
			// t = sin(theta/2); s2 = 2*t*t   (theta register reused for t)
			DLoad(9).Ldc(cTwo, true).Op(bytecode.Ddiv).
			Call(bytecode.Invokestatic, sinRef, 1, true).DStore(9).
			Ldc(cTwo, true).DLoad(9).Op(bytecode.Dmul).DLoad(9).Op(bytecode.Dmul).DStore(10)

		// a == 0 pass
		a.PushInt(0).IStore(11).
			Label("b0loop").
			ILoad(11).ILoad(2).Branch(bytecode.IfIcmpge, "b0done").
			PushInt(2).ILoad(11).Op(bytecode.Imul).IStore(12).
			PushInt(2).ILoad(11).ILoad(5).Op(bytecode.Iadd).Op(bytecode.Imul).IStore(13).
			// wd = data[j..j+1]
			ALoad(0).ILoad(13).Op(bytecode.Daload).DStore(14).
			ALoad(0).ILoad(13).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).DStore(15)
		butterfly(a)
		bumpB(a)
		a.Branch(bytecode.Goto, "b0loop").
			Label("b0done").
			// for (a = 1; a < dual; a++)
			PushInt(1).IStore(16).
			Label("aloop").
			ILoad(16).ILoad(5).Branch(bytecode.IfIcmpge, "adone").
			// trig recurrence
			DLoad(6).DLoad(8).DLoad(7).Op(bytecode.Dmul).Op(bytecode.Dsub).
			DLoad(10).DLoad(6).Op(bytecode.Dmul).Op(bytecode.Dsub).DStore(19).
			DLoad(7).DLoad(8).DLoad(6).Op(bytecode.Dmul).Op(bytecode.Dadd).
			DLoad(10).DLoad(7).Op(bytecode.Dmul).Op(bytecode.Dsub).DStore(7).
			DLoad(19).DStore(6).
			// inner b loop
			PushInt(0).IStore(11).
			Label("biloop").
			ILoad(11).ILoad(2).Branch(bytecode.IfIcmpge, "bidone").
			PushInt(2).ILoad(11).ILoad(16).Op(bytecode.Iadd).Op(bytecode.Imul).IStore(12).
			PushInt(2).ILoad(11).ILoad(5).Op(bytecode.Iadd).ILoad(16).Op(bytecode.Iadd).
			Op(bytecode.Imul).IStore(13).
			// z1 = data[j..j+1]
			ALoad(0).ILoad(13).Op(bytecode.Daload).DStore(17).
			ALoad(0).ILoad(13).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).DStore(18).
			// wd = w * z1 (complex)
			DLoad(6).DLoad(17).Op(bytecode.Dmul).DLoad(7).DLoad(18).Op(bytecode.Dmul).
			Op(bytecode.Dsub).DStore(14).
			DLoad(6).DLoad(18).Op(bytecode.Dmul).DLoad(7).DLoad(17).Op(bytecode.Dmul).
			Op(bytecode.Dadd).DStore(15)
		butterfly(a)
		bumpB(a)
		a.Branch(bytecode.Goto, "biloop").
			Label("bidone").
			Iinc(16, 1).
			Branch(bytecode.Goto, "aloop").
			Label("adone").
			Iinc(4, 1).
			ILoad(5).ILoad(5).Op(bytecode.Iadd).IStore(5).
			Branch(bytecode.Goto, "bitloop").
			Label("bitdone").
			Op(bytecode.Return)
	})

	// void inverse(double[] data): transform(-1) then scale by 1/n.
	// locals: 0=data 1=n 2=norm 3=i
	inverse := build(pool, methodSpec{
		Name: "inverse", Argc: 1, MaxLocals: 4,
	}, func(a *bytecode.Assembler) {
		a.ALoad(0).PushInt(-1).Call(bytecode.Invokestatic, transformRef, 2, false).
			ALoad(0).Op(bytecode.Arraylength).PushInt(2).Op(bytecode.Idiv).IStore(1).
			Op(bytecode.Dconst1).ILoad(1).Op(bytecode.I2d).Op(bytecode.Ddiv).DStore(2).
			PushInt(0).IStore(3).
			Label("loop").
			ILoad(3).ALoad(0).Op(bytecode.Arraylength).Branch(bytecode.IfIcmpge, "done").
			ALoad(0).ILoad(3).
			ALoad(0).ILoad(3).Op(bytecode.Daload).DLoad(2).Op(bytecode.Dmul).
			Op(bytecode.Dastore).
			Iinc(3, 1).
			Branch(bytecode.Goto, "loop").
			Label("done").
			Op(bytecode.Return)
	})

	c := classfile.NewClass("scimark/fft/FFT")
	c.Add(bitreverse).Add(transform).Add(inverse)
	return c
}

// LUClass builds scimark/lu/LU.factor — 99% of scimark.lu.large (Table 3).
func LUClass() *classfile.Class {
	pool := classfile.NewConstantPool()
	absRef := pool.AddMethodRef(classfile.MethodRef{
		Class: "java/lang/Math", Name: "abs", Argc: 1, ReturnsValue: true})

	// int factor(double[][] A, int[] pivot) — in-place LU with partial
	// pivoting; returns 0 on success, 1 on singularity.
	// locals: 0=A 1=pivot 2=N 3=j 4=jp 5=t 6=i 7=ab 8=recp 9=k
	//         10=ii 11=Aii 12=Aj 13=AiiJ 14=jj 15=tA
	factor := build(pool, methodSpec{
		Name: "factor", Argc: 2, Returns: true, MaxLocals: 16,
	}, func(a *bytecode.Assembler) {
		a.ALoad(0).Op(bytecode.Arraylength).IStore(2).
			PushInt(0).IStore(3).
			Label("jloop").
			ILoad(3).ILoad(2).Branch(bytecode.IfIcmpge, "jdone").
			// jp = j; t = abs(A[j][j])
			ILoad(3).IStore(4).
			ALoad(0).ILoad(3).Op(bytecode.Aaload).ILoad(3).Op(bytecode.Daload).
			Call(bytecode.Invokestatic, absRef, 1, true).DStore(5).
			// pivot search
			ILoad(3).Op(bytecode.Iconst1).Op(bytecode.Iadd).IStore(6).
			Label("ploop").
			ILoad(6).ILoad(2).Branch(bytecode.IfIcmpge, "pdone").
			ALoad(0).ILoad(6).Op(bytecode.Aaload).ILoad(3).Op(bytecode.Daload).
			Call(bytecode.Invokestatic, absRef, 1, true).DStore(7).
			DLoad(7).DLoad(5).Op(bytecode.Dcmpl).Branch(bytecode.Ifle, "pskip").
			ILoad(6).IStore(4).
			DLoad(7).DStore(5).
			Label("pskip").
			Iinc(6, 1).
			Branch(bytecode.Goto, "ploop").
			Label("pdone").
			// pivot[j] = jp
			ALoad(1).ILoad(3).ILoad(4).Op(bytecode.Iastore).
			// if (A[jp][j] == 0) return 1
			ALoad(0).ILoad(4).Op(bytecode.Aaload).ILoad(3).Op(bytecode.Daload).
			Op(bytecode.Dconst0).Op(bytecode.Dcmpl).Branch(bytecode.Ifne, "nonsing").
			Op(bytecode.Iconst1).Op(bytecode.Ireturn).
			Label("nonsing").
			// row swap if jp != j
			ILoad(4).ILoad(3).Branch(bytecode.IfIcmpeq, "noswap").
			ALoad(0).ILoad(3).Op(bytecode.Aaload).AStore(15).
			ALoad(0).ILoad(3).ALoad(0).ILoad(4).Op(bytecode.Aaload).Op(bytecode.Aastore).
			ALoad(0).ILoad(4).ALoad(15).Op(bytecode.Aastore).
			Label("noswap").
			// if (j < N-1) scale column and eliminate
			ILoad(3).ILoad(2).Op(bytecode.Iconst1).Op(bytecode.Isub).
			Branch(bytecode.IfIcmpge, "next").
			// recp = 1 / A[j][j]
			Op(bytecode.Dconst1).
			ALoad(0).ILoad(3).Op(bytecode.Aaload).ILoad(3).Op(bytecode.Daload).
			Op(bytecode.Ddiv).DStore(8).
			// for (k = j+1; k < N; k++) A[k][j] *= recp
			ILoad(3).Op(bytecode.Iconst1).Op(bytecode.Iadd).IStore(9).
			Label("kloop").
			ILoad(9).ILoad(2).Branch(bytecode.IfIcmpge, "kdone").
			ALoad(0).ILoad(9).Op(bytecode.Aaload).ILoad(3).
			ALoad(0).ILoad(9).Op(bytecode.Aaload).ILoad(3).Op(bytecode.Daload).
			DLoad(8).Op(bytecode.Dmul).
			Op(bytecode.Dastore).
			Iinc(9, 1).
			Branch(bytecode.Goto, "kloop").
			Label("kdone").
			// elimination
			ILoad(3).Op(bytecode.Iconst1).Op(bytecode.Iadd).IStore(10).
			Label("iiloop").
			ILoad(10).ILoad(2).Branch(bytecode.IfIcmpge, "iidone").
			ALoad(0).ILoad(10).Op(bytecode.Aaload).AStore(11).
			ALoad(0).ILoad(3).Op(bytecode.Aaload).AStore(12).
			ALoad(11).ILoad(3).Op(bytecode.Daload).DStore(13).
			ILoad(3).Op(bytecode.Iconst1).Op(bytecode.Iadd).IStore(14).
			Label("jjloop").
			ILoad(14).ILoad(2).Branch(bytecode.IfIcmpge, "jjdone").
			ALoad(11).ILoad(14).
			ALoad(11).ILoad(14).Op(bytecode.Daload).
			DLoad(13).ALoad(12).ILoad(14).Op(bytecode.Daload).Op(bytecode.Dmul).
			Op(bytecode.Dsub).
			Op(bytecode.Dastore).
			Iinc(14, 1).
			Branch(bytecode.Goto, "jjloop").
			Label("jjdone").
			Iinc(10, 1).
			Branch(bytecode.Goto, "iiloop").
			Label("iidone").
			Label("next").
			Iinc(3, 1).
			Branch(bytecode.Goto, "jloop").
			Label("jdone").
			PushInt(0).Op(bytecode.Ireturn)
	})

	c := classfile.NewClass("scimark/lu/LU")
	c.Add(factor)
	return c
}

// SORClass builds scimark/sor/SOR.execute — 99% of scimark.sor.large.
func SORClass() *classfile.Class {
	pool := classfile.NewConstantPool()
	cQuarter := pool.AddDouble(0.25)

	// double execute(double omega, double[][] G, int num_iterations)
	// locals: 0=omega 1=G 2=iters 3=M 4=N 5=oof 6=omo 7=p 8=i
	//         9=Gi 10=Gim1 11=Gip1 12=j 13=Mm1 14=Nm1
	execute := build(pool, methodSpec{
		Name: "execute", Argc: 3, Returns: true, MaxLocals: 15,
	}, func(a *bytecode.Assembler) {
		a.ALoad(1).Op(bytecode.Arraylength).IStore(3).
			ALoad(1).Op(bytecode.Iconst0).Op(bytecode.Aaload).Op(bytecode.Arraylength).IStore(4).
			// omega_over_four = omega * 0.25
			DLoad(0).Ldc(cQuarter, true).Op(bytecode.Dmul).DStore(5).
			// one_minus_omega = 1.0 - omega
			Op(bytecode.Dconst1).DLoad(0).Op(bytecode.Dsub).DStore(6).
			ILoad(3).Op(bytecode.Iconst1).Op(bytecode.Isub).IStore(13).
			ILoad(4).Op(bytecode.Iconst1).Op(bytecode.Isub).IStore(14).
			PushInt(0).IStore(7).
			Label("ploop").
			ILoad(7).ILoad(2).Branch(bytecode.IfIcmpge, "pdone").
			PushInt(1).IStore(8).
			Label("iloop").
			ILoad(8).ILoad(13).Branch(bytecode.IfIcmpge, "idone").
			ALoad(1).ILoad(8).Op(bytecode.Aaload).AStore(9).
			ALoad(1).ILoad(8).Op(bytecode.Iconst1).Op(bytecode.Isub).Op(bytecode.Aaload).AStore(10).
			ALoad(1).ILoad(8).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Aaload).AStore(11).
			PushInt(1).IStore(12).
			Label("jloop").
			ILoad(12).ILoad(14).Branch(bytecode.IfIcmpge, "jdone").
			// Gi[j] = oof*(Gim1[j]+Gip1[j]+Gi[j-1]+Gi[j+1]) + omo*Gi[j]
			ALoad(9).ILoad(12).
			DLoad(5).
			ALoad(10).ILoad(12).Op(bytecode.Daload).
			ALoad(11).ILoad(12).Op(bytecode.Daload).Op(bytecode.Dadd).
			ALoad(9).ILoad(12).Op(bytecode.Iconst1).Op(bytecode.Isub).Op(bytecode.Daload).Op(bytecode.Dadd).
			ALoad(9).ILoad(12).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Daload).Op(bytecode.Dadd).
			Op(bytecode.Dmul).
			DLoad(6).ALoad(9).ILoad(12).Op(bytecode.Daload).Op(bytecode.Dmul).
			Op(bytecode.Dadd).
			Op(bytecode.Dastore).
			Iinc(12, 1).
			Branch(bytecode.Goto, "jloop").
			Label("jdone").
			Iinc(8, 1).
			Branch(bytecode.Goto, "iloop").
			Label("idone").
			Iinc(7, 1).
			Branch(bytecode.Goto, "ploop").
			Label("pdone").
			// return G[1][1] as a convergence witness
			ALoad(1).Op(bytecode.Iconst1).Op(bytecode.Aaload).Op(bytecode.Iconst1).Op(bytecode.Daload).
			Op(bytecode.Dreturn)
	})

	c := classfile.NewClass("scimark/sor/SOR")
	c.Add(execute)
	return c
}

// SparseClass builds scimark/sparse/SparseCompRow.matmult — 99% of
// scimark.sparse.large.
func SparseClass() *classfile.Class {
	pool := classfile.NewConstantPool()

	// void matmult(double[] y, double[] val, int[] row, int[] col,
	//              double[] x, int NUM_ITERATIONS)
	// locals: 0=y 1=val 2=row 3=col 4=x 5=iters
	//         6=M 7=reps 8=r 9=sum 10=i 11=rowR 12=rowRp1
	matmult := build(pool, methodSpec{
		Name: "matmult", Argc: 6, MaxLocals: 13,
	}, func(a *bytecode.Assembler) {
		a.ALoad(2).Op(bytecode.Arraylength).Op(bytecode.Iconst1).Op(bytecode.Isub).IStore(6).
			PushInt(0).IStore(7).
			Label("reps").
			ILoad(7).ILoad(5).Branch(bytecode.IfIcmpge, "repsdone").
			PushInt(0).IStore(8).
			Label("rloop").
			ILoad(8).ILoad(6).Branch(bytecode.IfIcmpge, "rdone").
			Op(bytecode.Dconst0).DStore(9).
			ALoad(2).ILoad(8).Op(bytecode.Iaload).IStore(11).
			ALoad(2).ILoad(8).Op(bytecode.Iconst1).Op(bytecode.Iadd).Op(bytecode.Iaload).IStore(12).
			ILoad(11).IStore(10).
			Label("iloop").
			ILoad(10).ILoad(12).Branch(bytecode.IfIcmpge, "idone").
			// sum += x[col[i]] * val[i]
			DLoad(9).
			ALoad(4).ALoad(3).ILoad(10).Op(bytecode.Iaload).Op(bytecode.Daload).
			ALoad(1).ILoad(10).Op(bytecode.Daload).
			Op(bytecode.Dmul).Op(bytecode.Dadd).DStore(9).
			Iinc(10, 1).
			Branch(bytecode.Goto, "iloop").
			Label("idone").
			ALoad(0).ILoad(8).DLoad(9).Op(bytecode.Dastore).
			Iinc(8, 1).
			Branch(bytecode.Goto, "rloop").
			Label("rdone").
			Iinc(7, 1).
			Branch(bytecode.Goto, "reps").
			Label("repsdone").
			Op(bytecode.Return)
	})

	c := classfile.NewClass("scimark/sparse/SparseCompRow")
	c.Add(matmult)
	return c
}

// MonteCarloClass builds scimark/monte_carlo/MonteCarlo.integrate, which
// drives Random.nextDouble to 77% of the benchmark (Table 3).
func MonteCarloClass() *classfile.Class {
	pool := classfile.NewConstantPool()
	ndRef := pool.AddMethodRef(classfile.MethodRef{
		Class: "scimark/utils/Random", Name: "nextDouble",
		Instance: true, ReturnsValue: true})
	cFour := pool.AddDouble(4.0)

	// double integrate(Random r, int numSamples)
	// locals: 0=r 1=numSamples 2=under 3=count 4=x 5=y
	integrate := build(pool, methodSpec{
		Name: "integrate", Argc: 2, Returns: true, MaxLocals: 6,
	}, func(a *bytecode.Assembler) {
		a.PushInt(0).IStore(2).
			PushInt(0).IStore(3).
			Label("loop").
			ILoad(3).ILoad(1).Branch(bytecode.IfIcmpge, "done").
			ALoad(0).Call(bytecode.Invokevirtual, ndRef, 0, true).DStore(4).
			ALoad(0).Call(bytecode.Invokevirtual, ndRef, 0, true).DStore(5).
			DLoad(4).DLoad(4).Op(bytecode.Dmul).
			DLoad(5).DLoad(5).Op(bytecode.Dmul).Op(bytecode.Dadd).
			Op(bytecode.Dconst1).Op(bytecode.Dcmpg).
			Branch(bytecode.Ifgt, "skip").
			Iinc(2, 1).
			Label("skip").
			Iinc(3, 1).
			Branch(bytecode.Goto, "loop").
			Label("done").
			ILoad(2).Op(bytecode.I2d).ILoad(1).Op(bytecode.I2d).Op(bytecode.Ddiv).
			Ldc(cFour, true).Op(bytecode.Dmul).
			Op(bytecode.Dreturn)
	})

	c := classfile.NewClass("scimark/monte_carlo/MonteCarlo")
	c.Add(integrate)
	return c
}

// SciMarkSuites returns the five SciMark benchmark suites with drivers.
func SciMarkSuites() []*Suite {
	fft := &Suite{
		Name: "scimark.fft.large", Era: "SpecJvm2008",
		Classes: []*classfile.Class{FFTClass(), RandomClass()},
		HotMethods: []string{
			"scimark/fft/FFT.transform_internal/2",
			"scimark/fft/FFT.bitreverse/1",
		},
	}
	fft.Run = func(vm *jvm.Machine, scale int) error {
		transform := fft.method("scimark/fft/FFT", "transform_internal")
		inverse := fft.method("scimark/fft/FFT", "inverse")
		n := 64 << uint(min(scale, 4))
		rng := rand.New(rand.NewSource(101))
		data := make([]float64, 2*n)
		for i := range data {
			data[i] = rng.Float64()*2 - 1
		}
		arr := vm.NewDoubleArray(data)
		for it := 0; it < scale; it++ {
			if _, err := vm.Invoke(transform, arr, jvm.Int(1)); err != nil {
				return err
			}
			if _, err := vm.Invoke(inverse, arr); err != nil {
				return err
			}
		}
		return nil
	}

	lu := &Suite{
		Name: "scimark.lu.large", Era: "SpecJvm2008",
		Classes:    []*classfile.Class{LUClass()},
		HotMethods: []string{"scimark/lu/LU.factor/2"},
	}
	lu.Run = func(vm *jvm.Machine, scale int) error {
		factor := lu.method("scimark/lu/LU", "factor")
		n := 8 + 4*scale
		rng := rand.New(rand.NewSource(202))
		for it := 0; it < scale; it++ {
			mat := vm.NewMatrix(n, n)
			obj, err := vm.Heap.Get(mat)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				row, err := vm.Heap.Get(obj.Array[i])
				if err != nil {
					return err
				}
				for j := 0; j < n; j++ {
					row.Array[j] = jvm.Double(rng.Float64()*2 - 1)
				}
			}
			pivot := vm.NewIntArray(make([]int64, n))
			res, err := vm.Invoke(factor, mat, pivot)
			if err != nil {
				return err
			}
			if res.I != 0 {
				return fmt.Errorf("lu: singular matrix at iteration %d", it)
			}
		}
		return nil
	}

	sor := &Suite{
		Name: "scimark.sor.large", Era: "SpecJvm2008",
		Classes:    []*classfile.Class{SORClass()},
		HotMethods: []string{"scimark/sor/SOR.execute/3"},
	}
	sor.Run = func(vm *jvm.Machine, scale int) error {
		execute := sor.method("scimark/sor/SOR", "execute")
		n := 16 + 8*scale
		rng := rand.New(rand.NewSource(303))
		g := vm.NewMatrix(n, n)
		obj, err := vm.Heap.Get(g)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			row, err := vm.Heap.Get(obj.Array[i])
			if err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				row.Array[j] = jvm.Double(rng.Float64())
			}
		}
		_, err = vm.Invoke(execute, jvm.Double(1.25), g, jvm.Int(int64(4*scale)))
		return err
	}

	sparse := &Suite{
		Name: "scimark.sparse.large", Era: "SpecJvm2008",
		Classes:    []*classfile.Class{SparseClass()},
		HotMethods: []string{"scimark/sparse/SparseCompRow.matmult/6"},
	}
	sparse.Run = func(vm *jvm.Machine, scale int) error {
		matmult := sparse.method("scimark/sparse/SparseCompRow", "matmult")
		n := 100 * scale
		nz := 5 * n
		rng := rand.New(rand.NewSource(404))
		row := make([]int64, n+1)
		col := make([]int64, nz)
		val := make([]float64, nz)
		perRow := nz / n
		for r := 0; r < n; r++ {
			row[r+1] = row[r] + int64(perRow)
			for k := 0; k < perRow; k++ {
				col[int(row[r])+k] = int64(rng.Intn(n))
				val[int(row[r])+k] = rng.Float64()
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		_, err := vm.Invoke(matmult,
			vm.NewDoubleArray(make([]float64, n)),
			vm.NewDoubleArray(val),
			vm.NewIntArray(row),
			vm.NewIntArray(col),
			vm.NewDoubleArray(x),
			jvm.Int(int64(2*scale)))
		return err
	}

	mc := &Suite{
		Name: "scimark.monte_carlo", Era: "SpecJvm2008",
		Classes: []*classfile.Class{MonteCarloClass(), RandomClass()},
		HotMethods: []string{
			"scimark/utils/Random.nextDouble/0",
			"scimark/monte_carlo/MonteCarlo.integrate/2",
		},
	}
	mc.Run = func(vm *jvm.Machine, scale int) error {
		integrate := mc.method("scimark/monte_carlo/MonteCarlo", "integrate")
		rnd, err := NewRandom(vm, 113)
		if err != nil {
			return err
		}
		pi, err := vm.Invoke(integrate, rnd, jvm.Int(int64(2000*scale)))
		if err != nil {
			return err
		}
		if pi.F < 2.8 || pi.F > 3.5 {
			return fmt.Errorf("monte_carlo: π estimate %v implausible", pi.F)
		}
		return nil
	}

	return []*Suite{fft, lu, sor, sparse, mc}
}
