package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"javaflow/internal/bytecode"
)

// TestCorpusFootprint gates what the serving corpus costs a node, which
// builds Corpus(2014, 1580) at start-up and keeps it for its lifetime.
// Method bodies are exact-size slices of 56-byte instructions, and one
// build allocates about 10.1 k times and 6.25 MB (24.3 k and 21.9 MB when
// bodies were doubling-grown slices of 96-byte instructions). The bounds
// keep a few percent of headroom over that.
func TestCorpusFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if size := unsafe.Sizeof(bytecode.Instruction{}); size > 56 {
		t.Errorf("bytecode.Instruction is %d bytes, want <= 56", size)
	}
	for _, m := range Corpus(2014, 1580) { // also the warm-up for the counts below
		if cap(m.Code) != len(m.Code) {
			t.Fatalf("%s: code has cap %d for %d instructions, want exact size", m.Signature(), cap(m.Code), len(m.Code))
		}
	}

	const maxAllocs, maxBytes = 10_500, 6_600_000
	allocs := testing.AllocsPerRun(1, func() { Corpus(2014, 1580) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Corpus(2014, 1580)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if allocs > maxAllocs {
		t.Errorf("Corpus(2014, 1580): %.0f allocations, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("Corpus(2014, 1580): %d bytes allocated, want <= %d", bytes, maxBytes)
	}
	t.Logf("Corpus(2014, 1580): %.0f allocations, %d bytes", allocs, bytes)
}
