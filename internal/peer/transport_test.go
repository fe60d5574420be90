package peer

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer is an httptest server that counts the connections
// clients open to it.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var dials atomic.Int32
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &dials
}

// idleConns counts c's pooled connections.
func idleConns(c *http.Client) int {
	tr := c.Transport.(*transport)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, list := range tr.idle {
		n += len(list)
	}
	return n
}

// get sends one GET through Do and reads the whole body.
func get(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := Do(context.Background(), c, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTransportSequentialRequestsShareOneDial(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		_, _ = w.Write(append([]byte("echo:"), body...))
	})
	c := NewClient(2, 5*time.Second)
	for i := 0; i < 20; i++ {
		method, body, want := http.MethodGet, []byte(nil), "echo:"
		if i%2 == 1 {
			method, body, want = http.MethodPost, []byte(`{"i":1}`), `echo:{"i":1}`
		}
		resp, err := Do(context.Background(), c, method, ts.URL+"/x", body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != want {
			t.Fatalf("request %d: body %q, err %v; want %q", i, got, err, want)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("20 sequential requests opened %d connections, want 1", n)
	}
	if n := idleConns(c); n != 1 {
		t.Fatalf("%d idle connections after the run, want 1", n)
	}
}

// TestTransportRedialsConnClosedByPeer: a pooled connection the peer
// closed while it idled costs a second dial, not an error — for a GET and
// for a POST, whose body is sent again.
func TestTransportRedialsConnClosedByPeer(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		_, _ = w.Write(append([]byte("echo:"), body...))
	})
	c := NewClient(2, 5*time.Second)
	if got := get(t, c, ts.URL); got != "echo:" {
		t.Fatalf("first GET read %q", got)
	}
	ts.CloseClientConnections()
	if got := get(t, c, ts.URL); got != "echo:" {
		t.Fatalf("GET after the peer closed the idle connection read %q", got)
	}
	ts.CloseClientConnections()
	resp, err := Do(context.Background(), c, http.MethodPost, ts.URL, []byte("again"))
	if err != nil {
		t.Fatalf("POST after the peer closed the idle connection: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(got) != "echo:again" {
		t.Fatalf("POST after the peer closed the idle connection read %q, %v", got, err)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 3: one per connection the peer closed", n)
	}
}

// TestTransportPartlyReadBodyIsNotReused: a body closed before its end
// closes the connection, even when no unread byte had arrived yet.
func TestTransportPartlyReadBodyIsNotReused(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	closed := make(chan struct{})
	var calls atomic.Int32
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 { // ten bytes, and the rest only after the client closed the body
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			_, _ = io.WriteString(w, big[:10])
			w.(http.Flusher).Flush()
			<-closed
			_, _ = io.WriteString(w, big[10:])
			return
		}
		_, _ = io.WriteString(w, big)
	})
	c := NewClient(2, 5*time.Second)
	resp, err := Do(context.Background(), c, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(closed)
	if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
		t.Fatal("Read after Close succeeded")
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("a body closed after 10 of %d bytes left %d pooled connections, want 0", len(big), n)
	}
	if got := get(t, c, ts.URL); got != big {
		t.Fatalf("second GET read %d bytes, want %d", len(got), len(big))
	}
	if got := get(t, c, ts.URL); got != big {
		t.Fatalf("third GET read %d bytes, want %d", len(got), len(big))
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the partly read connection is dropped, the fully read one reused", n)
	}
}

// TestTransportChunkedGetJSONReusesConn: /metrics and /debug/traces answer
// over 2 KiB, which net/http sends chunked. GetJSON decodes such a body and
// reads it to the end — past the value, here padded with whitespace the
// decoder does not need — so its connection is reused.
func TestTransportChunkedGetJSONReusesConn(t *testing.T) {
	type doc struct{ Names []string }
	want := doc{Names: make([]string, 300)}
	for i := range want.Names {
		want.Names[i] = strings.Repeat("n", i%17)
	}
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(want)
		_, _ = io.WriteString(w, strings.Repeat(" ", 8<<10))
	})
	c := NewClient(2, 5*time.Second)
	resp, err := Do(context.Background(), c, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("Content-Length %d, Transfer-Encoding %q: the body is not chunked", resp.ContentLength, resp.TransferEncoding)
	}
	resp.Body.Close()
	for i := 0; i < 3; i++ {
		var got doc
		if err := GetJSON(context.Background(), c, ts.URL, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Names) != len(want.Names) || got.Names[299] != want.Names[299] {
			t.Fatalf("GetJSON decoded %d names", len(got.Names))
		}
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: one for the unread probe, one shared by three GetJSON calls", n)
	}
}

func TestTransportHonoursConnectionClose(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		_, _ = io.WriteString(w, "bye")
	})
	c := NewClient(2, 5*time.Second)
	for i := 0; i < 3; i++ {
		if got := get(t, c, ts.URL); got != "bye" {
			t.Fatalf("GET read %q", got)
		}
		if n := idleConns(c); n != 0 {
			t.Fatalf("a Connection: close response left %d pooled connections", n)
		}
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d dials for 3 Connection: close responses, want 3", n)
	}
}

// TestTransportIdleCap: connections beyond idlePerHost are closed when
// their requests finish, not pooled.
func TestTransportIdleCap(t *testing.T) {
	const inflight = 3
	var arrived sync.WaitGroup
	arrived.Add(inflight)
	release := make(chan struct{})
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release
		_, _ = io.WriteString(w, "ok")
	})
	c := NewClient(1, 5*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := Do(context.Background(), c, http.MethodGet, ts.URL, nil)
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	arrived.Wait()
	close(release)
	wg.Wait()
	if n := dials.Load(); n != inflight {
		t.Fatalf("%d dials for %d concurrent requests", n, inflight)
	}
	if n := idleConns(c); n != 1 {
		t.Fatalf("%d pooled connections, want the cap of 1", n)
	}
}

// TestTransportCancelReturnsPromptly: cancelling the context closes the
// connection and returns the context's error within 100 ms, both while
// waiting for the response head and while reading a stalled body.
func TestTransportCancelReturnsPromptly(t *testing.T) {
	arrived := make(chan struct{}, 2)
	stall := make(chan struct{})
	ts, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/body" {
			w.Header().Set("Content-Length", "100")
			_, _ = io.WriteString(w, "partial")
			w.(http.Flusher).Flush()
		}
		arrived <- struct{}{}
		<-stall
	})
	defer close(stall) // LIFO: unblock the handlers before ts.Close waits on them
	c := NewClient(2, time.Minute)

	for _, path := range []string{"/head", "/body"} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			resp, err := Do(ctx, c, http.MethodGet, ts.URL+path, nil)
			if err == nil {
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			done <- err
		}()
		<-arrived
		start := time.Now()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", path, err)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("%s: returned %v after the cancel, want within 100ms", path, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: cancelled request still waiting after 5s", path)
		}
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("cancelled requests left %d pooled connections", n)
	}
}

// TestTransportCapsResponseHead: a peer that streams an endless status or
// header line costs the caller an error once maxHeadBytes arrived, long
// before the header timeout, instead of buffering all it sends.
func TestTransportCapsResponseHead(t *testing.T) {
	for _, tc := range []struct{ name, prefix string }{
		{"status line", "HTTP/1.1 200 "},
		{"header line", "HTTP/1.1 200 OK\r\nX-Endless: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var sent atomic.Int64
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				if _, err := http.ReadRequest(bufio.NewReader(nc)); err != nil {
					return
				}
				n, err := io.WriteString(nc, tc.prefix)
				sent.Add(int64(n))
				chunk := bytes.Repeat([]byte("a"), 32<<10)
				for err == nil { // until the client closes the connection
					n, err = nc.Write(chunk)
					sent.Add(int64(n))
				}
			}()
			start := time.Now()
			_, err = Do(context.Background(), NewClient(1, time.Minute), http.MethodGet, "http://"+ln.Addr().String()+"/x", nil)
			if !errors.Is(err, errHeadTooLarge) {
				t.Fatalf("err = %v, want %v", err, errHeadTooLarge)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("the capped read took %v", d)
			}
			if n := sent.Load(); n < maxHeadBytes {
				t.Fatalf("failed after the peer sent %d bytes, before the %d-byte cap", n, maxHeadBytes)
			}
		})
	}
}

func TestTransportRejectsOtherSchemes(t *testing.T) {
	_, err := Do(context.Background(), NewClient(1, time.Second), http.MethodGet, "https://127.0.0.1:1/x", nil)
	if err == nil || !strings.Contains(err.Error(), `unsupported scheme "https"`) {
		t.Fatalf("err = %v, want the unsupported-scheme error", err)
	}
}

// FuzzPeerResponse feeds arbitrary reply bytes from a peer to the
// transport over a net.Pipe. Whatever arrives, nothing panics, and the
// transport agrees with http.ReadResponse over the same bytes: an error
// (malformed head, short body, informational status) exactly when the
// reference reading fails, the same body when it does not, and the
// connection pooled only after a complete response that allows keep-alive.
// Bytes after that response cannot be seen before its body ends once the
// reply outgrows one read buffer; within one, they keep it out of the pool.
func FuzzPeerResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte) {
		tr := newTransport(1, 10*time.Second)
		var dials atomic.Int32
		served := make(chan struct{})
		tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				return nil, errors.New("second dial")
			}
			client, srv := net.Pipe()
			go func() {
				defer close(served)
				defer srv.Close()
				if _, err := http.ReadRequest(bufio.NewReader(srv)); err != nil {
					t.Errorf("the transport wrote a request the server cannot read: %v", err)
					return
				}
				_, _ = srv.Write(reply) // fails once the client stops reading and closes
			}()
			return client, nil
		}
		req, err := http.NewRequest(http.MethodGet, "http://peer:1/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tr.RoundTrip(req)
		var got []byte
		if err == nil {
			got, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		pooled := len(tr.idle["peer:1"]) == 1
		if c := tr.get("peer:1"); c != nil {
			c.Close() // unblocks the server's write of any bytes the transport left unread
		}
		<-served

		src := bytes.NewReader(reply)
		br := bufio.NewReader(src)
		want, wantErr := http.ReadResponse(br, req)
		var wantBody []byte
		if wantErr == nil && want.StatusCode < http.StatusOK {
			wantErr = errors.New("informational status")
		}
		if wantErr == nil {
			wantBody, wantErr = io.ReadAll(want.Body)
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("transport err %v, reference err %v, for %q", err, wantErr, reply)
		}
		if err == nil && !bytes.Equal(got, wantBody) {
			t.Fatalf("transport read body %q, reference %q", got, wantBody)
		}
		keepAlive := wantErr == nil && !want.Close
		exact := keepAlive && br.Buffered() == 0 && src.Len() == 0
		if pooled && !keepAlive {
			t.Fatalf("pooled the connection after %q", reply)
		}
		if len(reply) <= connBufSize && pooled != exact {
			t.Fatalf("pooled = %v after %q, want %v", pooled, reply, exact)
		}
	})
}
