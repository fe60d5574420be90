package peer

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/obs"
)

func TestParseList(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      []string
		want    []string
		wantErr string
	}{
		{name: "empty flag", in: []string{""}, want: nil},
		{name: "spaces and empty entries", in: []string{" http://a:1 ", "", "  ", "http://b:2"}, want: []string{"http://a:1", "http://b:2"}},
		{name: "trailing slashes", in: []string{"http://a:1/", "http://b:2//"}, want: []string{"http://a:1", "http://b:2"}},
		{name: "missing scheme", in: []string{"a:1"}, wantErr: `bad peer URL "a:1"`},
		{name: "missing host", in: []string{"http://"}, wantErr: "bad peer URL"},
		{name: "bare word", in: []string{"backend"}, wantErr: "bad peer URL"},
		{name: "https", in: []string{"https://a:1"}, wantErr: `bad peer URL "https://a:1" (want http://host[:port])`},
		{name: "ftp", in: []string{"ftp://a:1"}, wantErr: `bad peer URL "ftp://a:1"`},
		{name: "duplicate", in: []string{"http://a:1", "http://a:1"}, wantErr: `duplicate peer "http://a:1"`},
		{name: "duplicate after normalisation", in: []string{"http://a:1", " http://a:1/ "}, wantErr: `duplicate peer "http://a:1"`},
	} {
		got, err := ParseList(tc.in)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestDoInjectsTraceAndDeadline is the by-construction property: a request
// built by Do carries the caller's trace one hop deeper and the caller's
// deadline when the context has them, and neither header when it does not.
func TestDoInjectsTraceAndDeadline(t *testing.T) {
	type seen struct{ trace, deadline, extra, contentType string }
	got := make(chan seen, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- seen{
			trace:       r.Header.Get(obs.TraceHeader),
			deadline:    r.Header.Get(admit.DeadlineHeader),
			extra:       r.Header.Get("X-Extra"),
			contentType: r.Header.Get("Content-Type"),
		}
	}))
	defer ts.Close()
	c := NewClient(1, 5*time.Second)

	resp, err := Do(context.Background(), c, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s := <-got; s.trace != "" || s.deadline != "" || s.contentType != "" {
		t.Fatalf("bare context sent headers %+v, want none", s)
	}

	tc := obs.TraceContext{TraceID: "cafe0123cafe4567", SpanID: "00000000000000aa", Hop: 2}
	ctx, cancel := context.WithTimeout(obs.ContextWithTrace(context.Background(), tc), 30*time.Second)
	defer cancel()
	resp, err = Do(ctx, c, http.MethodPost, ts.URL, []byte(`{}`), "X-Extra", "1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s := <-got
	sent, ok := obs.ParseTrace(s.trace)
	if !ok || sent.TraceID != tc.TraceID || sent.SpanID != tc.SpanID || sent.Hop != tc.Hop+1 {
		t.Errorf("trace header %q, want trace %s span %s at hop %d", s.trace, tc.TraceID, tc.SpanID, tc.Hop+1)
	}
	if _, ok := admit.ParseDeadline(s.deadline, time.Now()); !ok {
		t.Errorf("deadline header %q does not parse", s.deadline)
	}
	if s.extra != "1" || s.contentType != "application/json" {
		t.Errorf("extra header %q, content type %q; want 1 and application/json", s.extra, s.contentType)
	}
}

// TestStatusErrorKeepsBodyTruncatesMessage: errors.As callers decode the
// peer's whole error envelope; the one-line form stops at 200 characters.
func TestStatusErrorKeepsBodyTruncatesMessage(t *testing.T) {
	body := `{"error":"` + strings.Repeat("x", 5000) + `","kind":"rejected"}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		_, _ = w.Write([]byte("  " + body + "\n"))
	}))
	defer ts.Close()

	var v struct{}
	err := GetJSON(context.Background(), NewClient(1, 5*time.Second), ts.URL+"/x", &v)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *StatusError", err)
	}
	if se.Code != http.StatusUnprocessableEntity || se.URL != ts.URL+"/x" {
		t.Errorf("StatusError{URL: %q, Code: %d}", se.URL, se.Code)
	}
	if strings.TrimSpace(string(se.Body)) != body {
		t.Errorf("Body kept %d bytes, want the full %d", len(se.Body), len(body))
	}
	want := ts.URL + "/x: status 422: " + body[:200]
	if se.Error() != want {
		t.Errorf("Error() = %q (%d chars), want %q", se.Error(), len(se.Error()), want)
	}
}

func TestEachBoundsOrdersAndTimesOut(t *testing.T) {
	peers := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6"}
	const width = 3
	var running, peak atomic.Int32
	got := Each(context.Background(), peers, width, 50*time.Millisecond, func(ctx context.Context, p string) string {
		n := running.Add(1)
		defer running.Add(-1)
		for {
			if old := peak.Load(); n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		if p == "p2" { // the hung peer: only its own timeout ends the call
			<-ctx.Done()
			return p + ":" + ctx.Err().Error()
		}
		time.Sleep(5 * time.Millisecond)
		return p + ":ok"
	})
	want := []string{"p0:ok", "p1:ok", "p2:context deadline exceeded", "p3:ok", "p4:ok", "p5:ok", "p6:ok"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results %q, want %q (peer order)", got, want)
	}
	if p := peak.Load(); p > width {
		t.Errorf("%d calls ran at once, want at most %d", p, width)
	}
}
