package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a parser for the
// Prometheus text format WritePrometheus emits, and a MetricsSnapshot
// value supporting point lookups, family aggregation, bucket-quantile
// estimation, and before/after deltas. The load harness
// (internal/loadgen) scrapes a server's /metrics around each offered-load
// step and pairs the counter deltas with its own client-side
// measurements; tests use the same API to assert on scraped state
// without string matching.

// Sample is one exposition line: a sample name (including any _bucket /
// _sum / _count suffix), its label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// key renders the canonical identity of the sample: name plus the
// label set sorted by label name.
func (s Sample) key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	names := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString("=\"")
		b.WriteString(s.Labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// MetricsSnapshot is a parsed exposition: an immutable point-in-time view
// of every sample a scrape returned. Zero value is an empty snapshot.
type MetricsSnapshot struct {
	samples []Sample
	byKey   map[string]int   // sample key → index into samples
	byName  map[string][]int // sample name → indices, in input order
}

// ParseExposition parses a Prometheus text-format exposition (version
// 0.0.4 — the format WritePrometheus emits). Comment and blank lines are
// skipped; an optional trailing timestamp per sample line is tolerated
// and discarded. A malformed sample line is an error: a scrape that is
// only partly parseable must not silently pass for a complete one.
func ParseExposition(r io.Reader) (*MetricsSnapshot, error) {
	snap := &MetricsSnapshot{
		byKey:  make(map[string]int),
		byName: make(map[string][]int),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineno, err)
		}
		snap.add(s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: exposition line %d: %w", lineno, err)
	}
	return snap, nil
}

func (m *MetricsSnapshot) add(s Sample) {
	key := s.key()
	if i, dup := m.byKey[key]; dup {
		m.samples[i] = s // later sample wins, like a scraper would see
		return
	}
	m.byKey[key] = len(m.samples)
	m.byName[s.Name] = append(m.byName[s.Name], len(m.samples))
	m.samples = append(m.samples, s)
}

// parseSampleLine parses `name{k="v",...} value [timestamp]`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("no sample name in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want `value [timestamp]` after %q, got %q", s.Name, strings.TrimSpace(rest))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block, returning the labels and the
// remainder of the line. Label values may contain the exposition escapes
// \\, \" and \n.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label block in %q", in)
		}
		name := in[i : i+eq]
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("label %q: value is not quoted", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("label %q: unterminated value", name)
			}
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels[name] = b.String()
	}
}

// Len reports the number of samples in the snapshot.
func (m *MetricsSnapshot) Len() int { return len(m.samples) }

// Names returns the distinct sample names in the snapshot, sorted.
func (m *MetricsSnapshot) Names() []string {
	out := make([]string, 0, len(m.byName))
	for name := range m.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Series returns every sample with the given name, in exposition order.
// The returned samples share the snapshot's label maps; treat them as
// read-only.
func (m *MetricsSnapshot) Series(name string) []Sample {
	idx := m.byName[name]
	out := make([]Sample, len(idx))
	for i, j := range idx {
		out[i] = m.samples[j]
	}
	return out
}

// Value returns the sample with exactly the given name and label set.
// labels may be nil for an unlabeled sample.
func (m *MetricsSnapshot) Value(name string, labels map[string]string) (float64, bool) {
	i, ok := m.byKey[Sample{Name: name, Labels: labels}.key()]
	if !ok {
		return 0, false
	}
	return m.samples[i].Value, true
}

// Total sums every sample with the given name across all label sets —
// the family total of a labeled counter.
func (m *MetricsSnapshot) Total(name string) float64 {
	t := 0.0
	for _, j := range m.byName[name] {
		t += m.samples[j].Value
	}
	return t
}

// Quantile estimates the q-quantile of the named histogram from its
// `name_bucket` samples, merging every series of the family (label sets
// other than `le` are summed positionwise). Returns NaN when the
// histogram is absent or empty — same contract as BucketQuantile.
func (m *MetricsSnapshot) Quantile(name string, q float64) float64 {
	byLe := make(map[float64]float64)
	for _, s := range m.Series(name + "_bucket") {
		if bound, ok := leBound(s); ok {
			byLe[bound] += s.Value
		}
	}
	buckets := make([]Bucket, 0, len(byLe))
	for bound, count := range byLe {
		buckets = append(buckets, Bucket{Upper: bound, Count: count})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Upper < buckets[j].Upper })
	return BucketQuantile(q, buckets)
}

// HistogramCount returns the total observation count of the named
// histogram summed across its series (the `name_count` samples).
func (m *MetricsSnapshot) HistogramCount(name string) float64 {
	return m.Total(name + "_count")
}

// Where returns the samples whose labels satisfy keep as a snapshot of
// their own, e.g. the series of one set of routes across every family.
func (m *MetricsSnapshot) Where(keep func(labels map[string]string) bool) *MetricsSnapshot {
	out := &MetricsSnapshot{byKey: make(map[string]int), byName: make(map[string][]int)}
	for _, s := range m.samples {
		if keep(s.Labels) {
			out.add(s)
		}
	}
	return out
}

// Delta returns a snapshot holding, for every sample in m, its value
// minus the matching sample's value in before (a sample absent from
// before contributes its full value — it was born in the interval).
// Samples present only in before are dropped: the instrument vanished,
// so no delta is defined. Applied to two scrapes of one process, the
// result is the interval view — counter increments, histogram-bucket
// increments (Quantile over it estimates the interval's latency
// distribution), and gauge drift.
//
// A histogram's le set only widens between scrapes. A bucket absent from
// before stands for its series' earlier cumulative count at the greatest
// bound below it there, or 0 when there is none.
func (m *MetricsSnapshot) Delta(before *MetricsSnapshot) *MetricsSnapshot {
	out := &MetricsSnapshot{
		byKey:  make(map[string]int, len(m.samples)),
		byName: make(map[string][]int, len(m.byName)),
	}
	for _, s := range m.samples {
		d := s
		if before != nil {
			if prev, ok := before.Value(s.Name, s.Labels); ok {
				d.Value -= prev
			} else if bound, ok := leBound(s); ok {
				// Cumulative counts: the one at the greatest bound below is
				// the largest below.
				prev := 0.0
				for _, i := range before.byName[s.Name] {
					p := before.samples[i]
					if le, ok := leBound(p); ok && le < bound && sameSeries(p.Labels, s.Labels) {
						prev = max(prev, p.Value)
					}
				}
				d.Value -= prev
			}
		}
		out.add(d)
	}
	return out
}

// sameSeries reports whether two bucket label sets differ only in le.
func sameSeries(a, b map[string]string) bool {
	for k, v := range a {
		if w, ok := b[k]; k != "le" && (!ok || w != v) {
			return false
		}
	}
	return len(a) == len(b)
}

// leBound parses the le label of a histogram bucket sample.
func leBound(s Sample) (float64, bool) {
	le, ok := s.Labels["le"]
	if !ok || !strings.HasSuffix(s.Name, "_bucket") {
		return 0, false
	}
	bound, err := strconv.ParseFloat(le, 64)
	return bound, err == nil
}
