package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Package-level instrumentation
// (core's DP counters, the navigation-tree cache, the eutils client, the
// store loader) registers here from variable initializers; the server
// merges Default into its /metrics output.
var Default = NewRegistry()

// Registry holds metric families. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family is one named metric with a fixed label schema and one series per
// distinct label-value tuple.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu     sync.Mutex
	series map[string]any // joined label values → *Counter | *Gauge | *Histogram
	fn     func() float64 // kindGaugeFunc
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lookup returns the family, creating it on first use. A second
// registration with a different type or label schema panics: two call
// sites disagree about what the metric is.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// Names returns the registered family names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.families))
	for name := range r.families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// seriesKey joins label values with a separator that cannot appear in a
// (escaped) label value boundary ambiguity: 0xff never starts a UTF-8 rune.
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// with returns the series for the label values, creating it with mk.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	return s
}

// --- Counter ---

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() any { return &Counter{} }).(*Counter)
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, kindCounter, labels)}
}

// --- Gauge ---

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, nil)
	return f.with(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or returns) a labeled gauge family — e.g. the
// build-info idiom: a constant-1 gauge whose labels carry the metadata.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, kindGauge, labels)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering replaces the callback (the newest instance wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGaugeFunc, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// --- exposition ---

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families sorted by
// name, series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r)
}

// WritePrometheus renders several registries merged into one exposition.
// When two registries register the same family name, the earliest registry
// in regs wins (later duplicates are skipped rather than double-reported).
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var names []string
	byName := make(map[string]*family)
	for _, r := range regs {
		r.mu.RLock()
		for name, f := range r.families {
			if _, dup := byName[name]; !dup {
				byName[name] = f
				names = append(names, name)
			}
		}
		r.mu.RUnlock()
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		byName[name].write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.kind == kindGaugeFunc {
		v := 0.0
		if f.fn != nil {
			v = f.fn()
		}
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(v))
		return
	}
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if f.kind == kindHistogram {
		f.writeHistograms(b, keys)
		return
	}
	for _, key := range keys {
		values := splitSeriesKey(key, len(f.labels))
		switch s := f.series[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, renderLabels(f.labels, values, "", ""), s.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, renderLabels(f.labels, values, "", ""), s.Value())
		}
	}
}

// writeHistograms renders a histogram family's series, sorted by key.
// Every series emits the same le set, the family's window over the
// summed counts, so merging series by le stays correct. Each series is
// copied once, so its +Inf bucket and _count agree.
func (f *family) writeHistograms(b *strings.Builder, keys []string) {
	each := make([]counts, len(keys))
	var all counts
	for i, key := range keys {
		each[i].add(f.series[key].(*Histogram))
		for j, n := range each[i] {
			all[j] += n
		}
	}
	lo, hi := all.window()
	for i, key := range keys {
		values := splitSeriesKey(key, len(f.labels))
		buckets := each[i].buckets(lo, hi)
		for _, bk := range buckets {
			fmt.Fprintf(b, "%s_bucket%s %s\n", f.name,
				renderLabels(f.labels, values, "le", formatFloat(bk.Upper)), formatFloat(bk.Count))
		}
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
			renderLabels(f.labels, values, "", ""), formatFloat(f.series[key].(*Histogram).Sum()))
		fmt.Fprintf(b, "%s_count%s %s\n", f.name,
			renderLabels(f.labels, values, "", ""), formatFloat(buckets[len(buckets)-1].Count))
	}
}

func splitSeriesKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\xff", n)
}

// renderLabels formats {k="v",…}, appending an extra pair (for histogram
// le) when extraKey is non-empty. Empty label sets render as nothing.
func renderLabels(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a sample value: integral floats without an
// exponent, everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler returns an http.Handler serving the merged registries in
// text exposition format.
func MetricsHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, regs...)
	})
}
