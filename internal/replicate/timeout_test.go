package replicate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/peer"
	"javaflow/internal/store"
)

// TestDefaultClientHasTransportTimeouts pins that a Replicator built
// without a client gets transport-level dial and response-header bounds —
// the regression this PR fixes was a default transport that could hang a
// sync round forever on a wedged peer.
func TestDefaultClientHasTransportTimeouts(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := New(Options{Store: st, Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	lim, ok := peer.LimitsOf(r.client)
	if !ok {
		t.Fatal("default client is not the peer transport")
	}
	if lim.Header != pullHeaderTimeout {
		t.Fatalf("default client header timeout = %v, want %v", lim.Header, pullHeaderTimeout)
	}
	if lim.Dial <= 0 {
		t.Fatal("default client has no dial bound")
	}
}

// TestSyncNowFailsFastOnStalledPeer is the satellite regression test: a
// peer that accepts the manifest GET and never writes headers must fail
// its slice of the round at the header timeout, not wedge SyncNow until
// the caller's context expires.
func TestSyncNowFailsFastOnStalledPeer(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // never write headers
	}))
	defer ts.Close()
	defer close(stall) // LIFO: unblock the handler before Close waits on it

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := New(Options{Store: st, Peers: []string{ts.URL}, Client: peer.NewClient(2, 200*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- r.SyncNow(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("SyncNow succeeded against a stalled peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SyncNow wedged past the header timeout on a stalled peer")
	}
}

// TestPullCarriesDeadlineHeader pins deadline propagation on the pull
// path: a sync round driven by a context with a deadline announces that
// deadline to the peer, so an overloaded peer can shed the pull at
// admission.
func TestPullCarriesDeadlineHeader(t *testing.T) {
	headers := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case headers <- r.Header.Get(admit.DeadlineHeader):
		default:
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := New(Options{Store: st, Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.SyncNow(ctx) // peer answers 404; only the outbound header matters

	select {
	case h := <-headers:
		if h == "" {
			t.Fatal("manifest GET carried no deadline header despite a context deadline")
		}
		if _, ok := admit.ParseDeadline(h, time.Now()); !ok {
			t.Fatalf("deadline header %q does not parse", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the manifest GET")
	}
}
