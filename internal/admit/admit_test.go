package admit

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"javaflow/internal/obs"
)

// fakeClock is a manually-advanced time source shared by the tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAdmitCapRejectsNewest(t *testing.T) {
	c := New(Options{RunCap: 2, Now: newFakeClock().Now})

	// Oldest arrivals fill the lane and keep their slots.
	rel1, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	rel2, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("second admit: %v", err)
	}

	// Newest arrival at cap is the one rejected, typed.
	_, err = c.Admit(ClassRun)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("over-cap admit: got %v, want *OverloadError", err)
	}
	if oe.Class != ClassRun || oe.Cap != 2 || oe.Depth != 2 {
		t.Fatalf("overload error = %+v, want class=run cap=2 depth=2", oe)
	}
	if oe.RetryAfterSeconds() < 1 {
		t.Fatalf("RetryAfterSeconds = %d, want >= 1", oe.RetryAfterSeconds())
	}

	// The oldest-queued request completes; only then does a new arrival
	// get its slot.
	rel1()
	rel3, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel3()
	rel2()

	if got := c.Depth(ClassRun); got != 0 {
		t.Fatalf("depth after all releases = %d, want 0", got)
	}
	st := c.Stats()
	if st.Classes[0].Admitted != 3 || st.Classes[0].Rejected != 1 {
		t.Fatalf("stats = %+v, want admitted=3 rejected=1", st.Classes[0])
	}
}

func TestAdmitClassesAreIndependentLanes(t *testing.T) {
	c := New(Options{RunCap: 1, BatchCap: 1, ReplicateCap: 1})
	rel, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("run admit: %v", err)
	}
	defer rel()
	if _, err := c.Admit(ClassRun); err == nil {
		t.Fatal("second run admit should reject at cap 1")
	}
	// A saturated run lane must not starve batch or replicate.
	for _, class := range []Class{ClassBatch, ClassReplicate} {
		r, err := c.Admit(class)
		if err != nil {
			t.Fatalf("%s admit with run lane full: %v", class, err)
		}
		r()
	}
}

func TestRetryAfterArithmetic(t *testing.T) {
	clock := newFakeClock()
	c := New(Options{RunCap: 8, Parallelism: 2, Now: clock.Now})

	// No observations yet: floor applies.
	if got := c.RetryAfter(ClassRun); got != minRetryAfter {
		t.Fatalf("cold RetryAfter = %v, want %v", got, minRetryAfter)
	}

	// File four 4s services, so mean = 4s.
	for i := 0; i < 4; i++ {
		rel, err := c.Admit(ClassRun)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		clock.Advance(4 * time.Second)
		rel()
	}

	// depth=8, mean=4s, parallelism=2 → 16s drain estimate.
	var rels []func()
	for i := 0; i < 8; i++ {
		rel, err := c.Admit(ClassRun)
		if err != nil {
			t.Fatalf("fill admit %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	_, err := c.Admit(ClassRun)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("over-cap: got %v", err)
	}
	if want := 16 * time.Second; oe.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want %v (8 deep × 4s mean ÷ 2 workers)", oe.RetryAfter, want)
	}
	if got := oe.RetryAfterSeconds(); got != 16 {
		t.Fatalf("RetryAfterSeconds = %d, want 16", got)
	}
	for _, rel := range rels {
		rel()
	}

	// The ceiling clamps absurd drain estimates.
	slow := New(Options{RunCap: 4, Parallelism: 1, Now: clock.Now})
	rel, _ := slow.Admit(ClassRun)
	clock.Advance(10 * time.Minute)
	rel()
	r2, _ := slow.Admit(ClassRun)
	defer r2()
	if got := slow.RetryAfter(ClassRun); got != maxRetryAfter {
		t.Fatalf("clamped RetryAfter = %v, want %v", got, maxRetryAfter)
	}
}

func TestAdmitReleaseIdempotent(t *testing.T) {
	c := New(Options{RunCap: 1})
	rel, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // double release must not go negative or free a phantom slot
	if got := c.Depth(ClassRun); got != 0 {
		t.Fatalf("depth after double release = %d, want 0", got)
	}
}

func TestAdmitDraining(t *testing.T) {
	c := New(Options{RunCap: 4})
	rel, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("pre-drain admit: %v", err)
	}
	c.SetDraining(true)
	if _, err := c.Admit(ClassRun); err == nil {
		t.Fatal("draining controller admitted new work")
	}
	rel() // in-flight work still drains normally
	if got := c.Depth(ClassRun); got != 0 {
		t.Fatalf("depth = %d, want 0", got)
	}
	c.SetDraining(false)
	rel2, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("post-drain admit: %v", err)
	}
	rel2()
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	rel, err := c.Admit(ClassRun)
	if err != nil {
		t.Fatalf("nil controller rejected: %v", err)
	}
	rel()
	c.RecordShed(ClassBatch)
	c.SetDraining(true)
	if got := c.Depth(ClassRun); got != 0 {
		t.Fatalf("nil depth = %d", got)
	}
	if s := c.Stats(); s.Draining || len(s.Classes) != 0 {
		t.Fatalf("nil stats = %+v", s)
	}
}

// TestConcurrentAdmitRelease hammers one lane from many goroutines;
// run with -race. The accounting must end balanced: depth 0, and
// admitted+rejected equal to the attempt count.
func TestConcurrentAdmitRelease(t *testing.T) {
	c := New(Options{RunCap: 8})
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rel, err := c.Admit(ClassRun)
				if err == nil {
					if d := c.Depth(ClassRun); d < 1 || d > 8 {
						t.Errorf("depth %d outside [1,8] while admitted", d)
					}
					rel()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Depth(ClassRun); got != 0 {
		t.Fatalf("final depth = %d, want 0", got)
	}
	st := c.Stats().Classes[0]
	if st.Admitted+st.Rejected != goroutines*perG {
		t.Fatalf("admitted %d + rejected %d != %d attempts", st.Admitted, st.Rejected, goroutines*perG)
	}
}

func TestControllerRegistersGauges(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{RunCap: 1, Registry: reg})
	rel, _ := c.Admit(ClassRun)
	defer rel()
	c.Admit(ClassRun) // one rejection

	// The node renders the controller's Stats block, then its registry.
	var b strings.Builder
	obs.WriteSnapshot(&b, c.Stats())
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"javaflow_admit_queue_depth",
		"javaflow_admit_queue_cap",
		"javaflow_admit_admitted_total",
		"javaflow_admit_rejections_total",
		"javaflow_admit_deadline_sheds_total",
		"javaflow_admit_service_duration_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+want+" ") {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `javaflow_admit_rejections_total{class="run"} 1`) {
		t.Errorf("the rejection is not counted under class run:\n%s", out)
	}
}
