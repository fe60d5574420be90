package dispatch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRingDeterministicOwnership(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(names)
	r2 := newRing(names)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("pkg/Class.method/%d", i)
		if got, want := r1.owner(key, nil), r2.owner(key, nil); got != want {
			t.Fatalf("key %q: owner differs across identical rings: %d vs %d", key, got, want)
		}
		if again := r1.owner(key, nil); again != r1.owner(key, nil) {
			t.Fatalf("key %q: owner not stable on one ring", key)
		}
	}
}

// Suspending one backend must move only that backend's keys; every key
// owned by a surviving backend stays put — the consistent-hash property
// that keeps deployment caches hot through peer failures.
func TestRingFailureMovesOnlyFailedKeys(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(names)
	const dead = 1
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("pkg/Class.method/%d", i)
		before := r.owner(key, nil)
		after := r.owner(key, func(b int) bool { return b == dead })
		if before != dead && after != before {
			t.Fatalf("key %q moved from healthy backend %d to %d when backend %d died",
				key, before, after, dead)
		}
		if before == dead && after == dead {
			t.Fatalf("key %q still routed to dead backend", key)
		}
	}
	// All backends skipped: no owner.
	if got := r.owner("anything", func(int) bool { return true }); got != -1 {
		t.Fatalf("owner with all skipped = %d, want -1", got)
	}
}

func TestRingSharesRoughlyEven(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := newRing(names)
	shares := r.shares()
	total := 0.0
	for i, s := range shares {
		total += s
		// 128 virtual nodes per backend keeps each share within a few x
		// of even; the bound here is loose on purpose.
		if s < 0.05 || s > 0.60 {
			t.Fatalf("backend %d owns %.1f%% of the keyspace", i, 100*s)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", total)
	}

	// Job counts over a well-spread key population track the shares.
	counts := make([]int, len(names))
	const keys = 50000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("pkg%d/Class%d.method/%d", i*7919, i*104729, i%7), nil)]++
	}
	for i, c := range counts {
		frac := float64(c) / keys
		if math.Abs(frac-shares[i]) > 0.02 {
			t.Fatalf("backend %d: observed %.1f%% of keys vs %.1f%% ring share",
				i, 100*frac, 100*shares[i])
		}
	}
}

// TestRingBalanceProperty is the ring's balance contract over the names
// fleets actually use — loopback URLs differing only in the port, the
// worst case for a hash that mixes trailing bytes poorly. For every fleet
// size from 2 to 8, over seeded random port sets, the hottest backend's
// keyspace share divided by the fair share 1/n stays within 1.25 on nine
// sets in ten and within 1.5 on all of them.
func TestRingBalanceProperty(t *testing.T) {
	const sets = 100
	rng := rand.New(rand.NewSource(22))
	for n := 2; n <= 8; n++ {
		ratios := make([]float64, 0, sets)
		for len(ratios) < sets {
			names := make([]string, 0, n)
			for seen := map[int]bool{}; len(names) < n; {
				if p := 1024 + rng.Intn(64000); !seen[p] {
					seen[p] = true
					names = append(names, fmt.Sprintf("http://127.0.0.1:%d", p))
				}
			}
			hottest := 0.0
			for _, s := range newRing(names).shares() {
				hottest = math.Max(hottest, s)
			}
			ratios = append(ratios, hottest*float64(n))
		}
		sort.Float64s(ratios)
		if p90 := ratios[sets*9/10]; p90 > 1.25 {
			t.Errorf("%d backends: p90 hottest/fair = %.2f, want <= 1.25", n, p90)
		}
		if worst := ratios[sets-1]; worst > 1.5 {
			t.Errorf("%d backends: worst hottest/fair = %.2f, want <= 1.5", n, worst)
		}
	}
}
