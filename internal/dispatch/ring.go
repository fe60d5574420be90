package dispatch

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per backend. 128 well-mixed points
// leave a backend's keyspace share about 9 % (1/√128) off even, so the
// hottest of 2–8 backends carries a median 1.04–1.13× its fair share;
// TestRingBalanceProperty holds it to 1.25× on nine name sets in ten and
// 1.5× on every one. Ring construction and lookup stay trivial.
const replicas = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle owned
// by a backend.
type ringPoint struct {
	hash    uint64
	backend int
}

// ring is a consistent-hash ring over backend indexes. It is immutable
// after construction — backend health is handled at routing time by the
// caller's skip predicate, not by rebuilding the ring, so a flapping
// backend never reshuffles keys owned by healthy ones.
type ring struct {
	points   []ringPoint
	backends int
}

// hash64 is FNV-1a pushed through murmur3's 64-bit finaliser. Raw FNV-1a
// barely carries a string's trailing bytes into the high bits, so without
// it the vnodes "name#0" … "name#127" — and backends whose names differ
// only in a port digit — clump on the circle. A fixed function, not a
// seeded one: every process must build the same ring.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// newRing places replicas virtual nodes per backend name on the circle.
// Names must be distinct; the backend index is the caller's slot.
func newRing(names []string) *ring {
	r := &ring{
		points:   make([]ringPoint, 0, replicas*len(names)),
		backends: len(names),
	}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(name + "#" + strconv.Itoa(v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on backend so construction order never matters.
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// owner returns the backend owning key: the first virtual node clockwise
// from the key's hash whose backend the skip predicate accepts. Returns -1
// when every backend is skipped (or the ring is empty). The same key
// always lands on the same backend while that backend is accepted — the
// property that keeps a method's deployment cache hot on one node.
func (r *ring) owner(key string, skip func(backend int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := 0
	tried := make([]bool, r.backends)
	for i := 0; seen < r.backends && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.backend] {
			continue
		}
		tried[p.backend] = true
		seen++
		if skip == nil || !skip(p.backend) {
			return p.backend
		}
	}
	return -1
}

// shares returns each backend's fraction of the hash circle — the expected
// share of a uniformly hashed key population it owns.
func (r *ring) shares() []float64 {
	out := make([]float64, r.backends)
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 without overflowing
	for i, p := range r.points {
		// Arc from the previous point (wrapping) to p belongs to p.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		out[p.backend] += float64(arc) / whole
	}
	return out
}
