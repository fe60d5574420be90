// Package peer is the one place this tree speaks HTTP to another jfserved
// node. Every node-to-node request — a dispatched /v1/run, a replication
// pull, a gossip notification, a fleet scrape — is built by Do, so it
// always carries the caller's trace one hop deeper and its deadline, and
// fails with a typed *StatusError on a non-200, and goes over this
// package's own HTTP/1.1 transport (transport.go). Peer identity is
// decided here too (ParseList, Normalize), so backend names, cursor keys
// and notification origins agree on spelling. TestOneClient keeps both
// true.
package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/obs"
)

const (
	dialTimeout  = 5 * time.Second // tight: a dead host must fail fast, not hold a slot
	maxErrorBody = 1 << 20         // what StatusError keeps of a failed response
	maxJSONBody  = 4 << 20         // a GetJSON response: /metrics, a span set, a manifest
)

// Normalize canonicalises one peer base URL: no surrounding space, no trailing slash.
func Normalize(s string) string { return strings.TrimRight(strings.TrimSpace(s), "/") }

// ParseList turns raw peer entries (a split -peers flag, an Options.Peers
// slice) into normalised base URLs: empty entries are dropped, the rest
// need the http scheme (the only one the transport speaks) and a host, and
// two entries naming one node are an error.
func ParseList(entries []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		p := Normalize(e)
		if p == "" {
			continue
		}
		if u, err := url.Parse(p); err != nil || u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("bad peer URL %q (want http://host[:port])", e)
		}
		if seen[p] {
			return nil, fmt.Errorf("duplicate peer %q", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	return out, nil
}

// NewClient builds the peer client over this package's transport. No
// overall request timeout — a cold job computes for minutes, so lifetimes
// come from contexts — but dial and time-to-first-header are bounded, so a
// dead or wedged peer fails the attempt instead of pinning it. idlePerHost
// sizes the keep-alive pool to the caller's concurrency against one peer.
func NewClient(idlePerHost int, headerTimeout time.Duration) *http.Client {
	return &http.Client{Transport: newTransport(idlePerHost, headerTimeout)}
}

// Limits are the bounds of a client NewClient built.
type Limits struct {
	Dial        time.Duration // connect
	Header      time.Duration // from the request's last byte to the response head; 0 is unbounded
	IdlePerHost int           // pooled keep-alive connections per peer
}

// LimitsOf reports c's bounds; ok is false when c was not built by NewClient.
func LimitsOf(c *http.Client) (l Limits, ok bool) {
	t, ok := c.Transport.(*transport)
	if !ok {
		return Limits{}, false
	}
	return Limits{Dial: t.dialer.Timeout, Header: t.headerTimeout, IdlePerHost: t.idlePerHost}, true
}

// StatusError is a peer's non-200 answer. Body keeps what the peer sent so
// errors.As callers can decode its error envelope; Error() cuts it at 200.
type StatusError struct {
	URL  string
	Code int
	Body []byte
}

func (e *StatusError) Error() string {
	msg := strings.TrimSpace(string(e.Body))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Sprintf("%s: status %d: %s", e.URL, e.Code, msg)
}

// Do sends one request to a peer and returns the response only on status
// 200 (the caller closes its body); any other status is a *StatusError. A
// non-nil body is sent as JSON; header lists extra key, value pairs.
func Do(ctx context.Context, c *http.Client, method, url string, body []byte, header ...string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	obs.Inject(req, ctx)
	admit.Inject(req, ctx)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody)) // a short read still names the status
		resp.Body.Close()
		return nil, &StatusError{URL: url, Code: resp.StatusCode, Body: data}
	}
	return resp, nil
}

// GetJSON fetches url from a peer and decodes the 200 body into v.
func GetJSON(ctx context.Context, c *http.Client, url string, v any) error {
	resp, err := Do(ctx, c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body := io.LimitReader(resp.Body, maxJSONBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	// Read to the end — a chunked body's last chunk, writeJSON's newline —
	// so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, body)
	return nil
}

// Each runs fn once per peer, at most width at a time, each call under
// its own timeout (so one hung peer delays the scatter by at most that),
// and returns one result per peer, in peer order.
func Each[T any](ctx context.Context, peers []string, width int, timeout time.Duration, fn func(ctx context.Context, peer string) T) []T {
	out := make([]T, len(peers))
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			out[i] = fn(pctx, p)
		}()
	}
	wg.Wait()
	return out
}
