package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"

	"javaflow/internal/bytecode"
)

// corpusDigest is TestCorpusDigest's pinned value for Corpus(2014, 1580).
// Method.Hash keys the persistent store, so a change that moves it strands
// every record written before it.
const corpusDigest = "cb49239ccf5964e32a37dbb2d8ba857402a27fd4eca1108db1c60450da5ba0e3"

// TestCorpusDigest pins the serving corpus: a SHA-256 over every method of
// Corpus(2014, 1580), in order, of its signature, its Hash and its length.
// Any change to how the corpus is generated or stored in memory must leave
// all three untouched.
func TestCorpusDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, m := range Corpus(2014, 1580) {
		h.Write([]byte(m.Signature()))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], m.Hash())
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m.Code)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusDigest {
		t.Fatalf("corpus digest = %s, want %s", got, corpusDigest)
	}
}

// encodeDigest is TestEncodeDigest's pinned value for Corpus(2014, 1580).
const encodeDigest = "e6e04941ff0957bd3d1408c17d776f4bdcfb193cbe9a7e2f3243f67bccdda8df"

// TestEncodeDigest pins the architected byte form of the serving corpus: a
// SHA-256 over every method of Corpus(2014, 1580), in order, of its
// signature, the length of its bytecode.Encode output and that output; and
// every method decodes back to its own body. A change to the in-memory
// Instruction must leave the class-file bytes of every method as they were.
func TestEncodeDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, m := range Corpus(2014, 1580) {
		code, err := bytecode.Encode(m.Code, m.Switches)
		if err != nil {
			t.Fatalf("%s: %v", m.Signature(), err)
		}
		h.Write([]byte(m.Signature()))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], uint64(len(code)))
		h.Write(buf[:])
		h.Write(code)
		back, switches, err := bytecode.Decode(code, m.Pool)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Signature(), err)
		}
		if !slices.Equal(back, m.Code) || !reflect.DeepEqual(switches, m.Switches) {
			t.Fatalf("%s: decoded body differs from the method's", m.Signature())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != encodeDigest {
		t.Fatalf("encode digest = %s, want %s", got, encodeDigest)
	}
}
