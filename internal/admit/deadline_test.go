package admit

import (
	"context"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestDeadlineRoundTrip(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	dl := now.Add(90 * time.Second)

	got, ok := ParseDeadline(FormatDeadline(dl), now)
	if !ok {
		t.Fatal("round-tripped deadline did not parse")
	}
	if !got.Equal(dl.Truncate(time.Millisecond)) {
		t.Fatalf("round trip = %v, want %v", got, dl)
	}
}

func TestDeadlineHostileValuesParseToNoDeadline(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name, value string
	}{
		{"empty", ""},
		{"garbage", "soon"},
		{"float", "1754647200.5"},
		{"negative", "-1754647200000"},
		{"zero", "0"},
		{"overflow", "99999999999999999999999999"},
		{"max-int64", strconv.FormatInt(1<<62, 10)},
		{"too-far-future", FormatDeadline(now.Add(MaxDeadlineAhead + time.Hour))},
		{"trailing-junk", "1754647200000x"},
		{"whitespace", " 1754647200000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if dl, ok := ParseDeadline(tc.value, now); ok {
				t.Fatalf("ParseDeadline(%q) = %v, ok=true; want no deadline", tc.value, dl)
			}
		})
	}
}

func TestDeadlineExpiredStillParses(t *testing.T) {
	// A deadline in the past is valid — it is the expired-on-arrival
	// signal the serve layer sheds on, not a malformed value.
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	past := now.Add(-5 * time.Second)
	got, ok := ParseDeadline(FormatDeadline(past), now)
	if !ok {
		t.Fatal("past deadline should parse ok")
	}
	if !got.Before(now) {
		t.Fatalf("parsed %v, want before %v", got, now)
	}
}

func TestInjectAndFromRequest(t *testing.T) {
	now := time.Now()
	dl := now.Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()

	req, _ := http.NewRequest(http.MethodPost, "http://peer/v1/run", nil)
	Inject(req, ctx)
	got, ok := FromRequest(req, now)
	if !ok {
		t.Fatal("injected deadline did not round-trip through the request")
	}
	if d := got.Sub(dl); d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("deadline drifted %v through inject/extract", d)
	}

	// No ctx deadline → no header.
	req2, _ := http.NewRequest(http.MethodPost, "http://peer/v1/run", nil)
	Inject(req2, context.Background())
	if h := req2.Header.Get(DeadlineHeader); h != "" {
		t.Fatalf("header set without ctx deadline: %q", h)
	}
}

func TestWithDeadlineOnlyTightens(t *testing.T) {
	now := time.Now()
	tight := now.Add(1 * time.Second)
	loose := now.Add(10 * time.Second)

	// Parent already tighter: wire deadline must not extend it.
	parent, cancel := context.WithDeadline(context.Background(), tight)
	defer cancel()
	ctx, cancel2 := WithDeadline(parent, loose)
	defer cancel2()
	if dl, ok := ctx.Deadline(); !ok || dl.After(tight) {
		t.Fatalf("deadline extended to %v past parent %v", dl, tight)
	}

	// Parent looser: wire deadline tightens.
	parent2, cancel3 := context.WithDeadline(context.Background(), loose)
	defer cancel3()
	ctx2, cancel4 := WithDeadline(parent2, tight)
	defer cancel4()
	if dl, ok := ctx2.Deadline(); !ok || !dl.Equal(tight) {
		t.Fatalf("deadline = %v, want tightened to %v", dl, tight)
	}
}

// FuzzParseDeadline holds ParseDeadline to its contract on any wire value
// and clock: it never panics, and an accepted deadline lies after the
// Unix epoch, at most MaxDeadlineAhead past now, and parses back from
// FormatDeadline unchanged.
func FuzzParseDeadline(f *testing.F) {
	f.Add("1767268890000", int64(1767268800000))
	f.Fuzz(func(t *testing.T, value string, nowMilli int64) {
		now := time.UnixMilli(nowMilli)
		dl, ok := ParseDeadline(value, now)
		if !ok {
			return
		}
		if !dl.After(time.Unix(0, 0)) || dl.Sub(now) > MaxDeadlineAhead {
			t.Fatalf("ParseDeadline(%q, %v) accepted %v", value, now, dl)
		}
		if again, ok := ParseDeadline(FormatDeadline(dl), now); !ok || !again.Equal(dl) {
			t.Fatalf("ParseDeadline(%q) = %v, but %q parses to %v, %v", value, dl, FormatDeadline(dl), again, ok)
		}
	})
}
