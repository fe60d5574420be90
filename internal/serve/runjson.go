package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"javaflow/internal/sim"
)

// appendRunPayload appends p exactly as json.Encoder with SetIndent("", "  ")
// renders it — key order, two-space nesting, trailing newline — without
// reflection or the second indent pass. The document has a fixed shape, so
// the 200 path of POST /v1/run writes it with appends; the differential
// test (TestRunPayloadJSONMatchesEncodingJSON) holds the two renderings
// byte-identical over the corpus, and fails if sim.Result grows a field
// this function does not know. MeanIPC is a mean of two ratios of ints
// with non-zero denominators, hence finite (encoding/json rejects NaN/Inf).
func appendRunPayload(b []byte, p RunPayload) []byte {
	b = appendRunPrefix(b, p.Signature, p.Config)
	b = appendJSONFloat(b, p.MeanIPC)
	b = append(b, ",\n  \"bp1\": "...)
	b = appendResult(b, p.BP1)
	b = append(b, ",\n  \"bp2\": "...)
	b = appendResult(b, p.BP2)
	return append(b, "\n}\n"...)
}

// appendRunPrefix appends the bytes every 200 body of POST /v1/run for
// (signature, config) starts with, up to the meanIPC value.
func appendRunPrefix(b []byte, signature, config string) []byte {
	b = append(b, "{\n  \"signature\": "...)
	b = appendJSONString(b, signature)
	b = append(b, ",\n  \"config\": "...)
	b = appendJSONString(b, config)
	return append(b, ",\n  \"meanIPC\": "...)
}

// maxRunBody bounds the 200 body ReadRunBody accepts from a peer; a real
// one is well under 1 KiB.
const maxRunBody = 64 << 10

// ReadRunBody reads a peer's 200 answer to POST /v1/run for (config,
// signature) and checks its shape: exactly Content-Length bytes, starting
// with the prefix appendRunPayload emits for that job and ending as it
// ends. By the byte-identity invariant a body that passes is this node's
// answer too, so a dispatch front relays it without decoding it; one that
// fails — truncated, another job's, not ours at all — is the peer's fault.
func ReadRunBody(resp *http.Response, config, signature string) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > maxRunBody {
		return nil, fmt.Errorf("run body: Content-Length %d outside [0, %d]", resp.ContentLength, maxRunBody)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, fmt.Errorf("run body: %w", err)
	}
	var buf [256]byte
	prefix := appendRunPrefix(buf[:0], signature, config)
	if len(body) < len(prefix)+len("\n}\n") || string(body[:len(prefix)]) != string(prefix) || string(body[len(body)-3:]) != "\n}\n" {
		return nil, fmt.Errorf("run body: %d bytes that are not the /v1/run document of %s on %s", len(body), signature, config)
	}
	return body, nil
}

// AppendRunRequest appends req exactly as json.Marshal renders it — the
// body a dispatch front sends a peer's POST /v1/run.
func AppendRunRequest(b []byte, req RunRequest) []byte {
	b = append(b, `{"config":`...)
	b = appendJSONString(b, req.Config)
	b = append(b, `,"method":`...)
	b = appendJSONString(b, req.Method)
	b = append(b, `,"maxMeshCycles":`...)
	b = strconv.AppendInt(b, int64(req.MaxMeshCycles), 10)
	return append(b, '}')
}

// parseRunRequest decodes the canonical compact forms of a POST /v1/run
// body without reflection: {"config":"…","method":"…"}, optionally with
// ,"maxMeshCycles":N before the brace — what json.Marshal and
// AppendRunRequest write. Strings must be printable ASCII with no quote or
// backslash, N at most 9 digits with no leading zero, and nothing may
// follow the brace. Anything else reports false, for encoding/json to
// decode; an accepted body is one encoding/json decodes to the same value
// (FuzzRunRequestDecode).
func parseRunRequest(b []byte) (RunRequest, bool) {
	b, ok := cutLiteral(b, `{"config":`)
	if !ok {
		return RunRequest{}, false
	}
	config, b, ok := cutPlainString(b)
	if !ok {
		return RunRequest{}, false
	}
	if b, ok = cutLiteral(b, `,"method":`); !ok {
		return RunRequest{}, false
	}
	method, b, ok := cutPlainString(b)
	if !ok {
		return RunRequest{}, false
	}
	n := 0
	if rest, ok := cutLiteral(b, `,"maxMeshCycles":`); ok {
		d := 0
		for d < len(rest) && d < 10 && '0' <= rest[d] && rest[d] <= '9' {
			n = n*10 + int(rest[d]-'0')
			d++
		}
		if d == 0 || d > 9 || (rest[0] == '0' && d > 1) {
			return RunRequest{}, false
		}
		b = rest[d:]
	}
	if string(b) != "}" {
		return RunRequest{}, false
	}
	return RunRequest{Config: string(config), Method: string(method), MaxMeshCycles: n}, true
}

// cutLiteral cuts the literal s off the front of b.
func cutLiteral(b []byte, s string) ([]byte, bool) {
	if len(b) < len(s) || string(b[:len(s)]) != s {
		return b, false
	}
	return b[len(s):], true
}

// cutPlainString cuts a JSON string of printable ASCII without escapes off
// the front of b, returning its contents.
func cutPlainString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, b, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, b, false
		}
	}
	return nil, b, false
}

// appendResult renders one sim.Result (untagged: Go field names) nested
// one level down.
func appendResult(b []byte, r sim.Result) []byte {
	b = append(b, "{\n    \"Config\": "...)
	b = appendJSONString(b, r.Config)
	b = append(b, ",\n    \"Signature\": "...)
	b = appendJSONString(b, r.Signature)
	for _, f := range [...]struct {
		key string
		v   int
	}{
		{"Policy", int(r.Policy)}, {"Fired", r.Fired}, {"Distinct", r.Distinct},
		{"Static", r.Static}, {"MeshCycles", r.MeshCycles},
		{"ParallelCycles", r.ParallelCycles}, {"BusyCycles", r.BusyCycles},
		{"MaxNode", r.MaxNode},
	} {
		b = append(b, ",\n    \""...)
		b = append(b, f.key...)
		b = append(b, "\": "...)
		b = strconv.AppendInt(b, int64(f.v), 10)
	}
	b = append(b, ",\n    \"TimedOut\": "...)
	b = strconv.AppendBool(b, r.TimedOut)
	return append(b, "\n  }"...)
}

// appendJSONString quotes s as encoding/json does. Printable ASCII other
// than the characters json escapes (quote, backslash and — HTML escaping
// is on by default — <, >, &) is copied through; a string with any other
// byte takes encoding/json's own escaper, so control bytes, non-ASCII and
// invalid UTF-8 render identically by construction.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat renders a finite float64 in encoding/json's format:
// shortest round-trip digits, %e outside [1e-6, 1e21) with the exponent's
// leading zero dropped (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
