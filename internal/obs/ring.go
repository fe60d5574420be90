package obs

import (
	"iter"
	"sync"
	"sync/atomic"
)

// defaultRingLen bounds a span or event ring when no size is given.
const defaultRingLen = 512

// maxAttrs caps the key/value pairs one ring entry carries. A longer
// list is truncated instead of allocating: the rings trade completeness
// for an allocation-free hot path.
const maxAttrs = 4

// attrList is a ring entry's attributes as a fixed array of key/value
// strings in the order they were set. It becomes the wire attrs map only
// when read.
type attrList struct {
	n  int // strings held: a key, then its value
	kv [2 * maxAttrs]string
}

// set records key=value, replacing an earlier value of the same key. A
// new key on a full list is dropped.
func (a *attrList) set(key, value string) {
	for i := 0; i < a.n; i += 2 {
		if a.kv[i] == key {
			a.kv[i+1] = value
			return
		}
	}
	if a.n < len(a.kv) {
		a.kv[a.n], a.kv[a.n+1] = key, value
		a.n += 2
	}
}

// fill replaces the list with the leading pairs of kv, an even-length
// key/value list, up to maxAttrs of them.
func (a *attrList) fill(kv []string) { a.n = copy(a.kv[:], kv[:len(kv)&^1]) }

// wire renders the list as the wire attrs map, nil when empty.
func (a *attrList) wire() map[string]string {
	if a.n == 0 {
		return nil
	}
	m := make(map[string]string, a.n/2)
	for i := 0; i < a.n; i += 2 {
		m[a.kv[i]] = a.kv[i+1]
	}
	return m
}

// ring is the bounded buffer both the span tracer and the event journal
// record into. A writer claims a slot with one atomic add and fills the
// entry in place under that slot's mutex, so writers never contend with
// each other until the ring wraps; the per-slot mutex is contended only
// when a reader copies the same slot out.
type ring[T any] struct {
	next  atomic.Uint64 // slots ever claimed: the count of entries recorded
	slots []ringSlot[T]
}

type ringSlot[T any] struct {
	mu   sync.Mutex
	full bool // holds an entry: false only before the slot's first claim
	v    T
}

func newRing[T any](n int) ring[T] {
	if n <= 0 {
		n = defaultRingLen
	}
	return ring[T]{slots: make([]ringSlot[T], n)}
}

// claim takes the next slot and returns it locked. The caller overwrites
// every field of its entry, then unlocks it.
func (r *ring[T]) claim() *ringSlot[T] {
	s := &r.slots[(r.next.Add(1)-1)%uint64(len(r.slots))]
	s.mu.Lock()
	s.full = true
	return s
}

// newest yields the held entries newest-first, each copied out under its
// slot's mutex. A slot claimed but not yet written reads as its previous
// occupant, or is skipped on a fresh ring.
func (r *ring[T]) newest() iter.Seq[T] {
	return func(yield func(T) bool) {
		pos, size := r.next.Load(), uint64(len(r.slots))
		for i := uint64(0); i < min(pos, size); i++ {
			s := &r.slots[(pos-1-i)%size]
			s.mu.Lock()
			v, ok := s.v, s.full
			s.mu.Unlock()
			if ok && !yield(v) {
				return
			}
		}
	}
}
