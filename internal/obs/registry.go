package obs

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Registry holds a node's histograms and histogram vectors and renders
// them in the Prometheus text exposition format (0.0.4). Counters and
// gauges are not registered: they are tagged fields of the typed
// snapshots WriteSnapshot renders. Registering a histogram name twice
// returns the first instrument, so rebuilding a subsystem over a shared
// registry never duplicates a family. A nil *Registry is valid: the
// constructors return functional unregistered instruments.
type Registry struct {
	mu       sync.Mutex
	families []*metricFamily
	byName   map[string]*metricFamily
}

type metricFamily struct {
	name, help   string
	hists        []*histSeries
	histByLabels map[string]*histSeries
	vec          *HistogramVec
	vecKeys      []string
}

type histSeries struct {
	labels string
	h      *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metricFamily)}
}

func (r *Registry) family(name, help string) *metricFamily {
	f := r.byName[name]
	if f == nil {
		f = &metricFamily{name: name, help: help, histByLabels: make(map[string]*histSeries)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	return f
}

// NewHistogram registers and returns a histogram with static labels.
// On a nil registry it returns a functional unregistered histogram.
func (r *Registry) NewHistogram(name, help string, kv ...string) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	labels := renderLabelPairs(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help)
	if s := f.histByLabels[labels]; s != nil {
		return s.h
	}
	s := &histSeries{labels: labels, h: &Histogram{}}
	f.histByLabels[labels] = s
	f.hists = append(f.hists, s)
	return s.h
}

// NewHistogramVec registers and returns a histogram family keyed by the
// given label keys; children appear in the exposition as they are
// created via With. On a nil registry it returns a functional
// unregistered vector.
func (r *Registry) NewHistogramVec(name, help string, keys ...string) *HistogramVec {
	if r == nil {
		return NewHistogramVec(keys...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help)
	if f.vec == nil {
		f.vec = NewHistogramVec(keys...)
		f.vecKeys = keys
	}
	return f.vec
}

// WritePrometheus renders every histogram family in the text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		writeHeader(w, f.name, f.help, "histogram")
		for _, s := range f.hists {
			writeHistogram(w, f.name, s.labels, s.h.Snapshot())
		}
		if f.vec != nil {
			for _, c := range f.vec.snapshotAll() {
				kv := make([]string, 0, 2*len(f.vecKeys))
				for i, k := range f.vecKeys {
					v := ""
					if i < len(c.values) {
						v = c.values[i]
					}
					kv = append(kv, k, v)
				}
				writeHistogram(w, f.name, renderLabelPairs(kv), c.snap)
			}
		}
	}
}

// WriteSnapshot renders the counters and gauges a typed snapshot
// declares in the text exposition format. A field tagged
// prom:"<family>,counter" or prom:"<family>,gauge", with its HELP text
// in a help:"…" tag, is one numeric sample of that family. A tagged
// struct field is an info sample whose value is 1 and whose labels are
// its own fields. A field tagged
// prom:",label=<key>" labels every sample of the struct it sits in and
// of everything nested below it, so each element of a slice of structs
// is its own series. The walk follows pointers and interfaces (nil ones
// are skipped), embedded and nested structs and slices; maps and
// untagged scalars are ignored. Each family is written contiguously, in
// the order the walk first meets it.
func WriteSnapshot(w io.Writer, v any) {
	s := snapshotWriter{byName: make(map[string]*snapFamily)}
	s.walk(reflect.ValueOf(v), "")
	for _, f := range s.families {
		writeHeader(w, f.name, f.help, f.typ)
		io.WriteString(w, f.samples.String())
	}
}

type snapshotWriter struct {
	families []*snapFamily
	byName   map[string]*snapFamily
}

type snapFamily struct {
	name, help, typ string
	samples         strings.Builder
}

func (s *snapshotWriter) walk(v reflect.Value, labels string) {
	v = indirect(v)
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			s.walk(v.Index(i), labels)
		}
	case reflect.Struct:
		labels = structLabels(v, labels)
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag, tagged := f.Tag.Lookup("prom")
			if !f.IsExported() && !f.Anonymous || strings.HasPrefix(tag, ",label=") {
				continue
			}
			if !tagged {
				s.walk(v.Field(i), labels)
				continue
			}
			fv := indirect(v.Field(i))
			if fv.Kind() == reflect.Struct {
				s.add(f, structLabels(fv, labels), 1)
			} else if x, ok := number(fv); ok {
				s.add(f, labels, x)
			}
		}
	}
}

// add files one sample under the family field's prom tag names.
func (s *snapshotWriter) add(field reflect.StructField, labels string, v float64) {
	name, typ, _ := strings.Cut(field.Tag.Get("prom"), ",")
	f := s.byName[name]
	if f == nil {
		f = &snapFamily{name: name, help: field.Tag.Get("help"), typ: typ}
		s.byName[name] = f
		s.families = append(s.families, f)
	}
	writeSample(&f.samples, name, labels, v)
}

// indirect follows pointers and interfaces; a nil one yields the zero
// Value, which every walk step ignores.
func indirect(v reflect.Value) reflect.Value {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	return v
}

// structLabels appends the label pairs struct v's prom:",label=<key>"
// fields declare.
func structLabels(v reflect.Value, labels string) string {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		key, ok := strings.CutPrefix(t.Field(i).Tag.Get("prom"), ",label=")
		if !ok {
			continue
		}
		val := v.Field(i).String()
		if x, ok := number(v.Field(i)); ok {
			val = formatValue(x)
		}
		labels = joinLabels(labels, key+`="`+escapeLabelValue(val)+`"`)
	}
	return labels
}

func number(v reflect.Value) (float64, bool) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return v.Float(), true
	}
	return 0, false
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
}

func writeHistogram(w io.Writer, name, labels string, s HistogramSnapshot) {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += s.Counts[i]
		le := strconv.FormatFloat(float64(bucketBound(i))/1e9, 'g', -1, 64)
		writeSample(w, name+"_bucket", joinLabels(labels, `le="`+le+`"`), float64(cum))
	}
	cum += s.Counts[histBuckets]
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(w, name+"_sum", labels, float64(s.SumNS)/1e9)
	writeSample(w, name+"_count", labels, float64(s.Count))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabelPairs renders an even-length key/value list as
// `k1="v1",k2="v2"`, escaping values, with keys in given order.
func renderLabelPairs(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
