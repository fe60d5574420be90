package peer

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"
)

const (
	idleTimeout  = 90 * time.Second // how long a pooled connection may sit unused
	connBufSize  = 4 << 10          // per-connection read and write buffers, as net/http sizes them
	maxHeadBytes = 10 << 20         // bytes read for a response head, net/http's default MaxResponseHeaderBytes
)

// errHeadTooLarge is what a response whose head outgrows maxHeadBytes
// returns. http.ReadResponse itself reads a status or header line of any
// length, so without the bound a peer could stream one until the header
// timeout and the caller would buffer all of it.
var errHeadTooLarge = fmt.Errorf("peer: response head over %d bytes", maxHeadBytes)

// transport is the http.RoundTripper NewClient installs: HTTP/1.1 over a
// per-host pool of keep-alive connections, with the request written in one
// flush and the response head read on the caller's goroutine. net/http's
// Transport hands each request to a writeLoop and a readLoop goroutine and
// selects on them; on the dispatch hop that machinery cost over a third of a
// front's CPU (docs/performance.md has the profiles).
//
// Lifetimes: the dial is bounded by dialer.Timeout, the wait for the
// response head by headerTimeout and its size by maxHeadBytes, and
// everything — body included — by the request's context, whose
// cancellation closes the connection. A
// connection goes back to the pool only once its body was read to the end
// of a well-framed response that allows keep-alive.
type transport struct {
	dialer        net.Dialer
	dial          func(ctx context.Context, network, addr string) (net.Conn, error) // dialer.DialContext outside tests
	headerTimeout time.Duration                                                     // 0: unbounded
	idlePerHost   int

	mu   sync.Mutex
	idle map[string][]*conn // by host:port, the most recently used last
}

// conn is one keep-alive connection to a peer.
type conn struct {
	net.Conn
	addr      string
	head      headLimit // what br reads the connection through
	br        *bufio.Reader
	bw        *bufio.Writer
	abort     func()      // closes the conn; made once, for context.AfterFunc
	idleTimer *time.Timer // closes the conn once it idles past idleTimeout; guarded by transport.mu
}

func newTransport(idlePerHost int, headerTimeout time.Duration) *transport {
	if idlePerHost <= 0 {
		idlePerHost = http.DefaultMaxIdleConnsPerHost
	}
	t := &transport{
		dialer:        net.Dialer{Timeout: dialTimeout},
		headerTimeout: headerTimeout,
		idlePerHost:   idlePerHost,
		idle:          make(map[string][]*conn),
	}
	t.dial = t.dialer.DialContext
	return t
}

// RoundTrip sends req to its peer and returns the response with its head
// read. Every peer request can be replayed — a /v1/run is deterministic
// and idempotent in the store, a notify only triggers a pull, and the rest
// are GETs — so when a pooled connection fails before any response byte
// arrives (the peer closed it while it sat idle), the request is sent once
// more on a fresh dial instead of failing the caller.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("peer: unsupported scheme %q: peers speak http", req.URL.Scheme)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	c := t.get(addr)
	reused := c != nil
	for {
		if c == nil {
			nc, err := t.dial(ctx, "tcp", addr)
			if err != nil {
				closeBody(req)
				return nil, ctxErr(ctx, err)
			}
			c = &conn{Conn: nc, addr: addr, head: headLimit{Conn: nc, left: -1}, bw: bufio.NewWriterSize(nc, connBufSize)}
			c.br = bufio.NewReaderSize(&c.head, connBufSize)
			c.abort = func() { nc.Close() }
		}
		resp, early, err := t.exchange(ctx, c, req)
		if err == nil {
			return resp, nil
		}
		if !reused || !early || ctx.Err() != nil || isTimeout(err) {
			return nil, ctxErr(ctx, err)
		}
		if req.Body != nil && req.Body != http.NoBody {
			if req.GetBody == nil {
				return nil, err
			}
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, err
			}
			retry := *req
			retry.Body = body
			req = &retry
		}
		c, reused = nil, false
	}
}

// exchange writes req on c and reads the response head. On error c is
// closed, and early reports that no response byte had arrived.
func (t *transport) exchange(ctx context.Context, c *conn, req *http.Request) (resp *http.Response, early bool, err error) {
	stop := context.AfterFunc(ctx, c.abort)
	if err = req.Write(c.bw); err == nil { // closes req.Body
		err = c.bw.Flush()
	}
	if err == nil && t.headerTimeout > 0 {
		err = c.SetReadDeadline(time.Now().Add(t.headerTimeout))
	}
	if err == nil {
		c.head.left = maxHeadBytes
		_, err = c.br.Peek(1)
	}
	if err != nil {
		stop()
		c.Close()
		return nil, true, headErr(t.headerTimeout, err)
	}
	resp, err = http.ReadResponse(c.br, req)
	if err == nil && resp.StatusCode < http.StatusOK {
		err = fmt.Errorf("peer: unexpected informational status %d", resp.StatusCode) // nothing here sends Expect or upgrades
	}
	if err != nil {
		stop()
		c.Close()
		return nil, false, headErr(t.headerTimeout, err)
	}
	c.head.left = -1
	if t.headerTimeout > 0 {
		_ = c.SetReadDeadline(time.Time{}) // fails only once c is closed, when the next read fails anyway
	}
	keepAlive := !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		t.release(c, stop, keepAlive)
		return resp, false, nil
	}
	resp.Body = &body{rc: resp.Body, ctx: ctx, t: t, c: c, stop: stop, keepAlive: keepAlive}
	return resp, false, nil
}

// ctxErr is what a failed request reports: the context's own error once
// it is done (its cancellation is what closed the connection), else err.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// headErr names the header timeout, the one read deadline set here, in err.
func headErr(timeout time.Duration, err error) error {
	if isTimeout(err) {
		return fmt.Errorf("peer: no response head within %v: %w", timeout, err)
	}
	return err
}

// release ends c's use by one exchange: back to the pool when the response
// allowed it, the cancellation hook had not fired and nothing beyond the
// response was received; closed otherwise.
func (t *transport) release(c *conn, stop func() bool, keepAlive bool) {
	if stop() && keepAlive && c.br.Buffered() == 0 {
		t.put(c)
		return
	}
	c.Close()
}

// get takes the most recently used idle connection to addr, if any.
func (t *transport) get(addr string) *conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.idle[addr]
	if len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	list[len(list)-1] = nil
	t.idle[addr] = list[:len(list)-1]
	c.idleTimer.Stop() // a timer that already fired finds c gone and leaves it be
	return c
}

// put pools c, or closes it when its host already has idlePerHost idle.
func (t *transport) put(c *conn) {
	t.mu.Lock()
	list := t.idle[c.addr]
	if len(list) >= t.idlePerHost {
		t.mu.Unlock()
		c.Close()
		return
	}
	t.idle[c.addr] = append(list, c)
	if c.idleTimer == nil {
		c.idleTimer = time.AfterFunc(idleTimeout, func() { t.expire(c) })
	} else {
		c.idleTimer.Reset(idleTimeout)
	}
	t.mu.Unlock()
}

// expire drops c from the pool and closes it, unless a request took it.
func (t *transport) expire(c *conn) {
	t.mu.Lock()
	list := t.idle[c.addr]
	i := slices.Index(list, c)
	if i >= 0 {
		t.idle[c.addr] = slices.Delete(list, i, i+1)
	}
	t.mu.Unlock()
	if i >= 0 {
		c.Close()
	}
}

// headLimit reads a connection, failing with errHeadTooLarge once a
// response head has taken maxHeadBytes. Like net/http's readLimit, the
// count is of bytes read from the connection, so it includes what the
// buffered reader fetched ahead of the head.
type headLimit struct {
	net.Conn
	left int64 // bytes the head may still read; < 0 while no head is read
}

func (h *headLimit) Read(p []byte) (int, error) {
	if h.left < 0 {
		return h.Conn.Read(p)
	}
	if h.left == 0 {
		return 0, errHeadTooLarge
	}
	if int64(len(p)) > h.left {
		p = p[:h.left]
	}
	n, err := h.Conn.Read(p)
	h.left -= int64(n)
	return n, err
}

// errBodyClosed is what a body read after Close returns.
var errBodyClosed = errors.New("peer: read on closed response body")

// body is a response body that hands its connection back when read to
// the end, and closes it when closed or failed before that.
type body struct {
	rc        io.ReadCloser // the body http.ReadResponse framed; never closed, which would drain it
	ctx       context.Context
	t         *transport
	c         *conn
	stop      func() bool
	keepAlive bool
	err       error // once set, c is released and every Read returns it
}

func (b *body) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	switch {
	case err == io.EOF:
		b.t.release(b.c, b.stop, b.keepAlive)
		b.err = err
	case err != nil:
		b.stop()
		b.c.Close()
		b.err = ctxErr(b.ctx, err)
		err = b.err
	}
	return n, err
}

func (b *body) Close() error {
	if b.err == nil {
		b.stop()
		b.c.Close()
		b.err = errBodyClosed
	}
	return nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
