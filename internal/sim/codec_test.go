package sim

import (
	"bytes"
	"testing"

	"javaflow/internal/workload"
)

func sampleRun() MethodRun {
	return MethodRun{
		Signature: "scimark/fft/FFT.bitreverse/1",
		BP1: Result{
			Config: "Compact2", Signature: "scimark/fft/FFT.bitreverse/1",
			Policy: BP1, Fired: 1234, Distinct: 40, Static: 44,
			MeshCycles: 5678, ParallelCycles: 90, BusyCycles: 3000,
			MaxNode: 44,
		},
		BP2: Result{
			Config: "Compact2", Signature: "scimark/fft/FFT.bitreverse/1",
			Policy: BP2, Fired: 1200, Distinct: 41, Static: 44,
			MeshCycles: 5600, ParallelCycles: 85, BusyCycles: 2900,
			MaxNode: 44, TimedOut: true,
		},
	}
}

func TestMethodRunCodecRoundTrip(t *testing.T) {
	want := sampleRun()
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got MethodRun
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestMethodRunCodecStable(t *testing.T) {
	a, _ := sampleRun().MarshalBinary()
	b, _ := sampleRun().MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("equal runs marshalled to different bytes")
	}
	zero, _ := (MethodRun{}).MarshalBinary()
	if bytes.Equal(a, zero) {
		t.Fatalf("distinct runs marshalled to equal bytes")
	}
}

func TestMethodRunCodecRejectsGarbage(t *testing.T) {
	data, _ := sampleRun().MarshalBinary()
	var mr MethodRun
	if err := mr.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatalf("truncated buffer decoded without error")
	}
	if err := mr.UnmarshalBinary(append(append([]byte{}, data...), 0xAB)); err == nil {
		t.Fatalf("trailing bytes decoded without error")
	}
	bad := append([]byte{}, data...)
	bad[0] = 99 // wrong codec version
	if err := mr.UnmarshalBinary(bad); err == nil {
		t.Fatalf("wrong version decoded without error")
	}
}

// FuzzMethodRunUnmarshal feeds the codec the bytes a store replays from
// disk and replication receives from peers: UnmarshalBinary never panics,
// leaves its target untouched when it rejects the input, and whatever it
// accepts re-encodes to bytes that decode to the same MethodRun and
// re-encode to themselves. The seeds are real runs' encodings, each first
// checked to round-trip exactly.
func FuzzMethodRunUnmarshal(f *testing.F) {
	runner := &Runner{MaxMeshCycles: 2_000} // low enough that some runs time out
	for _, cfg := range Configurations() {
		for _, m := range workload.NamedMethods()[:8] {
			run, err := runner.RunMethod(cfg, m)
			if err != nil {
				continue // rejected by this fabric
			}
			enc, err := run.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			var back MethodRun
			if err := back.UnmarshalBinary(enc); err != nil || back != run {
				f.Fatalf("%s on %s: encoding does not round-trip (%v)", m.Signature(), cfg.Name, err)
			}
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run := sampleRun()
		if err := run.UnmarshalBinary(data); err != nil {
			if run != sampleRun() {
				t.Fatalf("rejected input (%v) changed the target to %+v", err, run)
			}
			return
		}
		enc, err := run.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back MethodRun
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoding of accepted input does not decode: %v\n%x", err, enc)
		}
		if back != run {
			t.Fatalf("re-encoding decodes to a different run:\n got %+v\nwant %+v", back, run)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", enc, again)
		}
	})
}
