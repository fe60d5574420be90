package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
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
