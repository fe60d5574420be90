package replicate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"javaflow/internal/peer"
	"javaflow/internal/store"
)

// Manifest is the GET /v1/replicate/segments wire envelope, shared by the
// serve handler (producer) and this client (consumer).
type Manifest struct {
	Segments []store.SegmentInfo `json:"segments"`
}

// maxSegmentFetch bounds one segment response: segments rotate at 8 MiB
// by default, so anything near this is a misconfigured peer, not data.
const maxSegmentFetch = 256 << 20

// fetchManifest polls one peer's segment inventory.
func (r *Replicator) fetchManifest(ctx context.Context, base string) ([]store.SegmentInfo, error) {
	var m Manifest
	if err := peer.GetJSON(ctx, r.client, base+"/v1/replicate/segments", &m); err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	return m.Segments, nil
}

// postNotify pushes one notification at a peer's POST /v1/replicate/notify.
// Only status 200 counts as delivered; anything else (including a peer
// running without gossip, which answers 404) is an error the caller
// accounts as a failed send.
func (r *Replicator) postNotify(ctx context.Context, base string, n Notification) error {
	body, err := json.Marshal(n)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	resp, err := peer.Do(ctx, r.client, http.MethodPost, base+"/v1/replicate/notify", body)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	defer resp.Body.Close()
	// Drain the small outcome document so the keep-alive connection is reused.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return nil
}

// fetchSegment streams segment seq's bytes from offset from to its
// currently visible end.
func (r *Replicator) fetchSegment(ctx context.Context, base string, seq int, from int64) ([]byte, error) {
	resp, err := peer.Do(ctx, r.client, http.MethodGet, fmt.Sprintf("%s/v1/replicate/segment/%d?from=%d", base, seq, from), nil)
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSegmentFetch))
	if err != nil {
		return nil, fmt.Errorf("replicate: reading segment %d from %s: %w", seq, base, err)
	}
	return data, nil
}
