package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// referenceDeployKey / referenceRunKey are the fmt.Sprintf renderings every
// store written before the append-based encoders was keyed with.
func referenceDeployKey(k DeployKey) []byte {
	return []byte(fmt.Sprintf("dep|e%d|%s|%016x|%s",
		sim.EngineVersion, k.Signature, k.MethodHash, k.Geometry))
}

func referenceRunKey(k RunKey) []byte {
	return []byte(fmt.Sprintf("run|e%d|%s|%016x|%s|spm%d|max%d",
		sim.EngineVersion, k.Signature, k.MethodHash, k.Geometry,
		k.SerialPerMesh, k.MaxMeshCycles))
}

// referenceMethodHash is the original hash/fnv field walk, kept as the
// oracle for classfile.Method.Hash's inlined, memoised version.
func referenceMethodHash(m *classfile.Method) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		h.Write(scratch[:])
	}
	writeBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	h.Write([]byte(m.Class))
	h.Write([]byte{0})
	h.Write([]byte(m.Name))
	h.Write([]byte{0})
	writeInt(int64(m.Argc))
	writeBool(m.Instance)
	writeBool(m.ReturnsValue)
	writeInt(int64(m.MaxLocals))
	writeInt(int64(m.MaxStack))
	writeInt(int64(len(m.Code)))
	for i, in := range m.Code {
		writeInt(int64(in.Op))
		writeInt(int64(in.A))
		writeInt(int64(in.B))
		writeInt(int64(in.Target))
		keys, targets := m.Arms(i)
		writeInt(int64(len(keys)))
		for _, k := range keys {
			writeInt(k)
		}
		writeInt(int64(len(targets)))
		for _, t := range targets {
			writeInt(int64(t))
		}
		writeInt(int64(in.Pop))
		writeInt(int64(in.Push))
	}
	return h.Sum64()
}

// TestMethodHashGolden pins the body hash of three named corpus methods to
// the values the stores in the field are keyed with.
func TestMethodHashGolden(t *testing.T) {
	golden := map[string]uint64{
		"scimark/fft/FFT.bitreverse/1":                                   0x82f3af55f3110e03,
		"scimark/utils/Random.nextDouble/0":                              0xd69af62ca77fade7,
		"spec/benchmarks/_228_jack/TokenEngine.getNextTokenFromStream/1": 0x18d2f4d9b4ba9bc1,
	}
	seen := 0
	for _, m := range workload.NamedMethods() {
		want, ok := golden[m.Signature()]
		if !ok {
			continue
		}
		seen++
		for pass := 0; pass < 2; pass++ { // computed, then memoised
			if got := m.Hash(); got != want {
				t.Errorf("%s pass %d: hash %#016x, want %#016x", m.Signature(), pass, got, want)
			}
		}
	}
	if seen != len(golden) {
		t.Fatalf("found %d of %d golden methods in the corpus", seen, len(golden))
	}
}

// TestKeysMatchParentFormat: a store directory written by any earlier
// commit must be served warm, so for every corpus method on every
// configuration the key bytes equal the original Sprintf rendering over
// the original hash walk.
func TestKeysMatchParentFormat(t *testing.T) {
	for _, m := range workload.Corpus(2014, 60) {
		hash := referenceMethodHash(m)
		for _, cfg := range sim.Configurations() {
			dk := DeployKey{Signature: m.Ref().Signature(), MethodHash: hash, Geometry: cfg.Fabric.GeometryKey()}
			if got, want := DeployKeyFor(cfg, m).encode(), referenceDeployKey(dk); !bytes.Equal(got, want) {
				t.Fatalf("deploy key %q, want %q", got, want)
			}
			rk := RunKey{DeployKey: dk, SerialPerMesh: cfg.SerialPerMesh, MaxMeshCycles: sim.DefaultMaxMeshCycles}
			if got, want := RunKeyFor(cfg, m, sim.DefaultMaxMeshCycles).encode(), referenceRunKey(rk); !bytes.Equal(got, want) {
				t.Fatalf("run key %q, want %q", got, want)
			}
		}
	}
}

// FuzzKeyEncode: the append-based key encoders equal the Sprintf reference
// for arbitrary field values.
func FuzzKeyEncode(f *testing.F) {
	f.Add("scimark/fft/FFT.bitreverse/1", uint64(0x82f3af55f3110e03), "w10:U", 2, 2_000_000)
	f.Add("", uint64(0), "", 0, 0)
	f.Add("a|b|c", uint64(1)<<63, "w10!:U", -1, -9223372036854775808)
	f.Fuzz(func(t *testing.T, sig string, hash uint64, geometry string, spm, maxCycles int) {
		dk := DeployKey{Signature: sig, MethodHash: hash, Geometry: geometry}
		if got, want := dk.encode(), referenceDeployKey(dk); !bytes.Equal(got, want) {
			t.Fatalf("deploy key %q, want %q", got, want)
		}
		rk := RunKey{DeployKey: dk, SerialPerMesh: spm, MaxMeshCycles: maxCycles}
		if got, want := rk.encode(), referenceRunKey(rk); !bytes.Equal(got, want) {
			t.Fatalf("run key %q, want %q", got, want)
		}
	})
}
