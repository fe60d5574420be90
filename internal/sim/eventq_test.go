package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The bucket queue must pop buckets in ascending time order with items in
// insertion order, across interleaved pushes and pops.
func TestTimeQOrdering(t *testing.T) {
	var q timeQ[int]
	rng := rand.New(rand.NewSource(42))

	type item struct{ time, seq int }
	var expect []item
	seq := 0
	push := func(tm int) {
		q.push(tm, seq)
		expect = append(expect, item{tm, seq})
		seq++
	}

	clock := 0
	for round := 0; round < 2000; round++ {
		for k := rng.Intn(4); k > 0; k-- {
			push(clock + 1 + rng.Intn(50))
		}
		if q.n == 0 {
			continue
		}
		if rng.Intn(3) != 0 {
			continue
		}
		tm := q.nextTime()
		if tm < clock {
			t.Fatalf("nextTime %d went backwards past clock %d", tm, clock)
		}
		clock = tm
		bt, items := q.takeMin()
		if bt != tm {
			t.Fatalf("takeMin time %d != nextTime %d", bt, tm)
		}
		// Expected: all items at time tm, in push order.
		var want []int
		keep := expect[:0]
		for _, it := range expect {
			if it.time == tm {
				want = append(want, it.seq)
			} else {
				keep = append(keep, it)
			}
		}
		expect = keep
		if len(items) != len(want) {
			t.Fatalf("bucket at %d has %d items, want %d", tm, len(items), len(want))
		}
		for i := range want {
			if items[i] != want[i] {
				t.Fatalf("bucket at %d item %d = %d, want %d (insertion order broken)", tm, i, items[i], want[i])
			}
		}
		q.recycle(items)
	}

	// Drain the remainder fully ordered.
	sort.Slice(expect, func(i, j int) bool {
		if expect[i].time != expect[j].time {
			return expect[i].time < expect[j].time
		}
		return expect[i].seq < expect[j].seq
	})
	var got []item
	for q.n > 0 {
		bt, items := q.takeMin()
		for _, s := range items {
			got = append(got, item{bt, s})
		}
		q.recycle(items)
	}
	if len(got) != len(expect) {
		t.Fatalf("drained %d items, want %d", len(got), len(expect))
	}
	for i := range got {
		if got[i] != expect[i] {
			t.Fatalf("drain[%d] = %+v, want %+v", i, got[i], expect[i])
		}
	}
	if q.n != 0 || len(q.asc) != q.head {
		t.Fatalf("queue not empty after drain: n=%d", q.n)
	}
}

func TestArrivalSortsMatchReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		msgs := make([]serialMsg, rng.Intn(12))
		for i := range msgs {
			msgs[i] = serialMsg{
				tok: token{kind: tokenKind(rng.Intn(4)), reg: i},
				to:  rng.Intn(5),
			}
		}
		want := append([]serialMsg(nil), msgs...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].to != want[j].to {
				return want[i].to < want[j].to
			}
			return want[i].tok.kind < want[j].tok.kind
		})
		sortSerialArrivals(msgs)
		for i := range msgs {
			if msgs[i] != want[i] {
				t.Fatalf("trial %d: insertion sort diverges from stable sort at %d", trial, i)
			}
		}
	}
}

// reset must empty a queue abandoned mid-run, hand its pending buckets'
// slices to the free list, and leave it ordering pushes like a new one.
func TestTimeQReset(t *testing.T) {
	var q timeQ[int]
	for round := 0; round < 3; round++ {
		// Leave the queue dirty: pending buckets, an advanced head, and a
		// taken bucket recycled.
		for i := 0; i < 40; i++ {
			q.push(100+i%10, i)
		}
		_, items := q.takeMin()
		q.recycle(items)
		pending, free := len(q.asc)-q.head, len(q.free)

		q.reset()
		if q.n != 0 || q.head != 0 || len(q.asc) != 0 {
			t.Fatalf("round %d: reset left n=%d head=%d buckets=%d", round, q.n, q.head, len(q.asc))
		}
		if len(q.free) != free+pending {
			t.Fatalf("round %d: free list %d, want %d (+%d pending buckets)", round, len(q.free), free+pending, pending)
		}
		for _, s := range q.free {
			if len(s) != 0 {
				t.Fatalf("round %d: recycled bucket still holds %d items", round, len(s))
			}
		}

		// Earlier times than the abandoned ones, out of order.
		for i, tm := range []int{7, 3, 9, 3, 7, 1} {
			q.push(tm, i)
		}
		if len(q.free) != free+pending-4 {
			t.Fatalf("round %d: pushes after reset did not reuse recycled buckets", round)
		}
		var got [][2]int
		for q.n > 0 {
			tm, items := q.takeMin()
			for _, v := range items {
				got = append(got, [2]int{tm, v})
			}
			q.recycle(items)
		}
		want := [][2]int{{1, 5}, {3, 1}, {3, 3}, {7, 0}, {7, 4}, {9, 2}}
		if len(got) != len(want) {
			t.Fatalf("round %d: drained %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: drained %v, want %v", round, got, want)
			}
		}
	}
}
