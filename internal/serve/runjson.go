package serve

import (
	"encoding/json"
	"math"
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
	b = append(b, "{\n  \"signature\": "...)
	b = appendJSONString(b, p.Signature)
	b = append(b, ",\n  \"config\": "...)
	b = appendJSONString(b, p.Config)
	b = append(b, ",\n  \"meanIPC\": "...)
	b = appendJSONFloat(b, p.MeanIPC)
	b = append(b, ",\n  \"bp1\": "...)
	b = appendResult(b, p.BP1)
	b = append(b, ",\n  \"bp2\": "...)
	b = appendResult(b, p.BP2)
	return append(b, "\n}\n"...)
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
