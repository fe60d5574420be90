package bytecode

import (
	"slices"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes. It must never panic, and a
// stream it accepts must encode again and decode back to the same
// instructions and arm tables. The seeds in testdata/fuzz/FuzzDecode are
// corpus method encodings, the lookupswitch method among them.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{byte(Iconst0), byte(Ireturn)})
	f.Fuzz(func(t *testing.T, code []byte) {
		instrs, switches, err := Decode(code, nil)
		if err != nil {
			return
		}
		again, err := Encode(instrs, switches)
		if err != nil {
			t.Fatalf("Decode accepted % x; Encode refused its result: %v", code, err)
		}
		back, backSwitches, err := Decode(again, nil)
		if err != nil {
			t.Fatalf("Decode refused its own re-encoding % x: %v", again, err)
		}
		if !slices.Equal(back, instrs) {
			t.Fatalf("instructions changed over a round trip:\n%s\nthen\n%s", Disassemble(instrs), Disassemble(back))
		}
		if !slices.EqualFunc(backSwitches, switches, func(x, y Switch) bool {
			return x.At == y.At && slices.Equal(x.Keys, y.Keys) && slices.Equal(x.Targets, y.Targets)
		}) {
			t.Fatalf("arm tables changed over a round trip: %v then %v", switches, backSwitches)
		}
	})
}
