package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"javaflow/internal/peer"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

// A Backend executes one dispatched job: a remote jfserved instance over
// HTTP, the in-process scheduler, or a test double. Implementations must
// be safe for concurrent use; errors other than *fabric.LoadError and
// context cancellation are treated as transient and retried on another
// node.
type Backend interface {
	// Name identifies the backend in metrics and ring placement; names
	// must be unique within a dispatcher.
	Name() string
	// Run executes job under the given effective mesh-cycle bound (always
	// resolved, never 0) and returns the completed two-policy MethodRun.
	Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error)
}

// remoteHeaderTimeout bounds a peer's time to first response byte. It is
// generous because a cold /v1/run legitimately computes for minutes
// before answering; the dial bound in internal/peer is what fails a dead
// host fast.
const remoteHeaderTimeout = 5 * time.Minute

// Remote is a Backend that forwards jobs to another jfserved instance via
// POST /v1/run. Config and method are sent by name, so the peer must serve
// the same registry (same corpus flags); a peer that does not know a name
// fails the job, which the dispatcher then retries elsewhere or runs
// locally.
type Remote struct {
	base   string // normalised URL prefix, e.g. "http://host:8077"
	client *http.Client
}

// NewRemote builds a backend for the jfserved instance at baseURL. A nil
// client gets the peer transport with keep-alive sized to the default
// inflight bound.
func NewRemote(baseURL string, client *http.Client) *Remote {
	if client == nil {
		client = peer.NewClient(defaultInflight, remoteHeaderTimeout)
	}
	return &Remote{base: peer.Normalize(baseURL), client: client}
}

// Name returns the peer's base URL.
func (r *Remote) Name() string { return r.base }

// RunBody posts the job to the peer's POST /v1/run and returns the 200
// body once serve.ReadRunBody has checked its shape: the bytes the
// single-job path relays, and the one request path Run decodes from.
// Non-200 responses become errors, as does a body that fails the check; a
// 422 rejection is rehydrated into the same typed *fabric.LoadError a
// local run would return, so skip accounting is identical on both paths.
func (r *Remote) RunBody(ctx context.Context, job serve.Job, maxCycles int) ([]byte, error) {
	req := serve.RunRequest{Config: job.Config.Name, Method: job.Method.Signature(), MaxMeshCycles: maxCycles}
	// One hop only: the receiving node executes locally even if it is
	// itself a dispatch front (or this very process — a self-peer must
	// not recurse).
	resp, err := peer.Do(ctx, r.client, http.MethodPost, r.base+"/v1/run",
		serve.AppendRunRequest(make([]byte, 0, 128), req), serve.DispatchedHeader, "1")
	if err != nil {
		var se *peer.StatusError
		var ep serve.ErrorPayload
		if errors.As(err, &se) && json.Unmarshal(se.Body, &ep) == nil && ep.Kind == serve.ErrKindRejected {
			return nil, ep.Err()
		}
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	defer resp.Body.Close()
	body, err := serve.ReadRunBody(resp, req.Config, req.Method)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", r.base, err)
	}
	return body, nil
}

// Run posts the job and decodes the peer's body into the MethodRun a batch
// merges. RunPayload carries both full Result structs; reassembling them
// is lossless (all fields are ints, bools and strings), so a dispatched
// run is byte-identical to a local one.
func (r *Remote) Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error) {
	body, err := r.RunBody(ctx, job, maxCycles)
	if err != nil {
		return sim.MethodRun{}, err
	}
	var payload serve.RunPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		return sim.MethodRun{}, fmt.Errorf("dispatch: %s: decoding response: %w", r.base, err)
	}
	return sim.MethodRun{Signature: payload.Signature, BP1: payload.BP1, BP2: payload.BP2}, nil
}
