package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The metric registry. Every metric is a collection-time function that
// reads existing state when a scrape happens: the measurement hot path
// already maintains lock-free counters and single-writer buffers, so
// the plane only needs to read them at scrape time — no instrument is
// ever touched on an OpenMP thread.

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// Kind distinguishes the Prometheus metric types the registry renders.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Emit receives one scalar series during collection.
type Emit func(value float64, labels ...Label)

// EmitHistogram receives one histogram series during collection.
type EmitHistogram func(snap HistogramSnapshot, labels ...Label)

// family groups every series sharing a metric name: one HELP/TYPE
// header, many collectors.
type family struct {
	name, help string
	kind       Kind
	scalars    []func(emit Emit)
	hists      []func(emit EmitHistogram)
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is expected at setup time;
// collection may run concurrently with the owners updating the state
// it reads.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	return f
}

// CounterFunc registers a counter series whose value is read by fn at
// collection time.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, KindCounter)
	r.addScalar(f, func(emit Emit) { emit(fn(), labels...) })
}

// GaugeFunc registers a gauge series whose value is read by fn at
// collection time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, KindGauge)
	r.addScalar(f, func(emit Emit) { emit(fn(), labels...) })
}

// CounterSeries registers a collection-time function that may emit any
// number of labeled counter series under one family — for label sets
// only known at scrape time (per-thread, per-site...).
func (r *Registry) CounterSeries(name, help string, collect func(emit Emit)) {
	f := r.family(name, help, KindCounter)
	r.addScalar(f, collect)
}

// GaugeSeries is CounterSeries for gauges.
func (r *Registry) GaugeSeries(name, help string, collect func(emit Emit)) {
	f := r.family(name, help, KindGauge)
	r.addScalar(f, collect)
}

// HistogramSeries registers a collection-time function emitting labeled
// histogram series under one family.
func (r *Registry) HistogramSeries(name, help string, collect func(emit EmitHistogram)) {
	f := r.family(name, help, KindHistogram)
	r.mu.Lock()
	f.hists = append(f.hists, collect)
	r.mu.Unlock()
}

func (r *Registry) addScalar(f *family, collect func(emit Emit)) {
	r.mu.Lock()
	f.scalars = append(f.scalars, collect)
	r.mu.Unlock()
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name; series appear in registration/emission order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, collect := range f.scalars {
			collect(func(value float64, labels ...Label) {
				b.WriteString(f.name)
				writeLabels(&b, labels, "", 0)
				fmt.Fprintf(&b, " %s\n", formatFloat(value))
			})
		}
		for _, collect := range f.hists {
			collect(func(snap HistogramSnapshot, labels ...Label) {
				writeHistogram(&b, f.name, snap, labels)
			})
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// for the occupied buckets (empty buckets carry no information in a
// cumulative encoding and are omitted to keep the exposition compact),
// the +Inf bucket, _sum and _count. Bounds are rendered in seconds, the
// Prometheus base unit for *_seconds families.
func writeHistogram(b *strings.Builder, name string, snap HistogramSnapshot, labels []Label) {
	var cum uint64
	for _, bk := range snap.Buckets {
		if bk.UpperNs < 0 {
			continue // overflow folds into +Inf below
		}
		cum += bk.Count
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, labels, "le", float64(bk.UpperNs)/1e9)
		fmt.Fprintf(b, " %d\n", cum)
	}
	b.WriteString(name)
	b.WriteString("_bucket")
	writeLabelsInf(b, labels)
	fmt.Fprintf(b, " %d\n", snap.Count)
	b.WriteString(name)
	b.WriteString("_sum")
	writeLabels(b, labels, "", 0)
	fmt.Fprintf(b, " %s\n", formatFloat(float64(snap.SumNs)/1e9))
	b.WriteString(name)
	b.WriteString("_count")
	writeLabels(b, labels, "", 0)
	fmt.Fprintf(b, " %d\n", snap.Count)
}

// writeLabels renders {a="b",...}, appending an le label when leName is
// nonempty; nothing is written for an empty label set.
func writeLabels(b *strings.Builder, labels []Label, leName string, le float64) {
	if len(labels) == 0 && leName == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", l.Name, l.Value)
	}
	if leName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=\"%s\"", leName, formatFloat(le))
	}
	b.WriteByte('}')
}

func writeLabelsInf(b *strings.Builder, labels []Label) {
	b.WriteByte('{')
	for _, l := range labels {
		// %q matches the exposition label escaping: backslash, quote
		// and newline are the three characters that need it.
		fmt.Fprintf(b, "%s=%q,", l.Name, l.Value)
	}
	b.WriteString(`le="+Inf"}`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
