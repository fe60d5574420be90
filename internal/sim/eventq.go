package sim

// Time-indexed containers for the event-driven engine core.
//
// The reference loop pays for every clock: each serial/mesh tick decrements
// every in-flight message and re-sorts the arrivals. The event-driven loop
// instead keys every message on its absolute arrival clock at send time and
// stores it in a timeQ — a bucket queue whose distinct pending times form a
// sorted list — so an idle clock costs nothing and a bucket pops already
// grouped by arrival time. Within a bucket, items keep insertion order,
// which is exactly the reference queue's order among same-clock arrivals;
// the small stable insertion sorts below then reproduce the reference's
// deterministic processing order without sort.SliceStable's closure
// allocations.

// tbucket is one pending arrival time and its FIFO payload.
type tbucket[T any] struct {
	t     int
	items []T
}

// timeQ is a bucket queue over absolute clock values. Buckets are held by
// value in ascending time order starting at head; spent slots before head
// are reclaimed lazily so pop-min is O(1). Pushes search backwards from
// the newest time (sends cluster a few clocks ahead of now) and memmove
// the short tail when a new time opens. Item slices recycle through a free
// list, and reset keeps both the bucket array and the free list, so a
// reused engine's queues stop allocating once they have seen their
// high-water mark — within a run and across runs.
type timeQ[T any] struct {
	asc  []tbucket[T]
	head int
	free [][]T
	n    int // total queued items
}

// push enqueues v at absolute time t.
func (q *timeQ[T]) push(t int, v T) {
	q.n++
	j := len(q.asc) - 1
	for j >= q.head && q.asc[j].t > t {
		j--
	}
	if j >= q.head && q.asc[j].t == t {
		q.asc[j].items = append(q.asc[j].items, v)
		return
	}
	var items []T
	if k := len(q.free); k > 0 {
		items = q.free[k-1]
		q.free = q.free[:k-1]
	} else {
		items = make([]T, 0, 8)
	}
	items = append(items, v)
	q.asc = append(q.asc, tbucket[T]{})
	copy(q.asc[j+2:], q.asc[j+1:])
	q.asc[j+1] = tbucket[T]{t: t, items: items}
}

// nextTime returns the earliest pending time; only valid when n > 0.
func (q *timeQ[T]) nextTime() int { return q.asc[q.head].t }

// pending returns the queued buckets in ascending time order, for reading.
func (q *timeQ[T]) pending() []tbucket[T] { return q.asc[q.head:] }

// takeMin detaches and returns the earliest bucket's time and items. The
// caller processes the items and hands the slice back via recycle.
func (q *timeQ[T]) takeMin() (int, []T) {
	b := q.asc[q.head]
	q.asc[q.head].items = nil
	q.head++
	if q.head == len(q.asc) {
		q.asc = q.asc[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 > len(q.asc) {
		kept := copy(q.asc, q.asc[q.head:])
		q.asc = q.asc[:kept]
		q.head = 0
	}
	q.n -= len(b.items)
	return b.t, b.items
}

// recycle returns a taken bucket's item slice to the free list.
func (q *timeQ[T]) recycle(items []T) {
	q.free = append(q.free, items[:0])
}

// reset empties the queue for reuse. Buckets still pending (a run aborted
// by timeout, stall or cancellation) go back on the free list.
func (q *timeQ[T]) reset() {
	for i := q.head; i < len(q.asc); i++ {
		q.recycle(q.asc[i].items)
		q.asc[i].items = nil
	}
	q.asc, q.head, q.n = q.asc[:0], 0, 0
}

// sortSerialArrivals stably orders same-clock serial arrivals by
// (destination, token kind, ord) — the reference loop's processing order.
// The reference loop leaves ord zero, so its queue order breaks the ties;
// the event loop's keys are distinct (Engine.nextOrd). Buckets are small (a
// handful of tokens), so stable insertion sort beats sort.SliceStable and
// allocates nothing.
func sortSerialArrivals(a []serialMsg) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0; j-- {
			x, y := &a[j], &a[j-1]
			if x.to > y.to || (x.to == y.to && (x.tok.kind > y.tok.kind ||
				(x.tok.kind == y.tok.kind && x.ord >= y.ord))) {
				break
			}
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sortMeshArrivals stably orders same-cycle operand deliveries by consumer.
func sortMeshArrivals(a []meshMsg) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].to < a[j-1].to; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sortCompletions orders same-cycle phase completions by node index — the
// reference loop's ascending node sweep.
func sortCompletions(a []completion) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].node < a[j-1].node; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sortTokensByKind stably orders a held-token buffer by kind, the release
// order of Section 6.3 (HEAD, MEMORY, REGISTERs, TAIL). Shared by both
// engine loops; buffers hold at most the full bundle.
func sortTokensByKind(a []token) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].kind < a[j-1].kind; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
