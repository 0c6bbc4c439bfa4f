package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"bionav/internal/store"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing. Single goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	reqs  int
}

// begin opens a span under the innermost open one; a span opened with
// nothing open starts a new request.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.reqs++
	}
	t.spans = append(t.spans, span{Name: name, Req: t.reqs, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// child records a span of duration d ending now under the innermost open
// one: time the program's own spans measured inside a layer call.
func (t *tracer) child(name string, d time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, Req: t.reqs, Parent: t.open[len(t.open)-1], Start: now - int64(d), End: now})
}

// layerStat is one span name's calls and self time: its duration minus
// the part its child spans cover.
type layerStat struct {
	calls int
	self  time.Duration
}

func (t *tracer) selfTimes() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inProcess plays the session sequence straight against the layers over
// a live corpus opened from a database directory.
type inProcess struct {
	in   *inputs
	live *store.Live
	l    *layers
	t    *tally
}

func openInProcess(in *inputs, db string, tr *tracer) (*inProcess, error) {
	sp := tr.begin("store.open_live")
	live, err := store.OpenLive(db)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	l := newLayers(live.Current())
	l.tr = tr
	return &inProcess{in: in, live: live, l: l, t: &tally{prints: map[int][]uint64{}}}, nil
}

func (p *inProcess) session(i, epoch int, proceed func() bool, record func(opKind, time.Duration), keep bool) *session {
	return &session{
		in: p.in, p: p.in.plan(i), b: &direct{l: p.l}, t: p.t, epoch: epoch,
		proceed: proceed, record: record, keep: keep,
	}
}

// ingest applies batch k through the store layer, publishes the new
// snapshot, and checks a query for the batch's marker term finds exactly
// the batch. It reports whether the batch went in.
func (p *inProcess) ingest(k int) bool {
	p.t.attempted++
	batch := p.in.batch(k)
	sp := p.l.tr.begin("store.ingest")
	next, err := p.live.Ingest(batch)
	p.l.tr.end(sp)
	if err != nil {
		p.t.failed++
		p.t.violate("ingest batch %d: %v", k, err)
		return false
	}
	p.l.publish(next)
	p.t.checkMarker(k, &direct{l: p.l})
	return true
}

// replayRun replays the session sequence, ingests included, one request
// after another straight against the layers for the window, with a span
// around every layer call. It writes the spans to tracePath and reports
// per-layer self times and counts. There is no warm-up: opening the live
// corpus and the cold-start misses of the nav-tree cache are in the trace.
func replayRun(in *inputs, db string, window time.Duration, tracePath string) (*report, error) {
	runtime.GC()
	tr := &tracer{t0: time.Now()}
	p, err := openInProcess(in, db, tr)
	if err != nil {
		return nil, err
	}
	defer p.live.Close()
	end := time.Now().Add(window)
	proceed := func() bool { return time.Now().Before(end) }
	requests := 0
	count := func(opKind, time.Duration) { requests++ }
	play(in, proceed, p.ingest, func(i, epoch int) *session {
		return p.session(i, epoch, proceed, count, false)
	})
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	st := tr.selfTimes()
	perCall := func(name string) float64 {
		s := st[name]
		if s == nil || s.calls == 0 {
			return 0
		}
		return float64(s.self.Nanoseconds()) / float64(s.calls) / 1e3
	}
	calls := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.calls)
		}
		return 0
	}
	us := func(name string) metric { return metric{perCall(name), "us"} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep := &p.t.report
	rep.metrics = map[string]metric{
		"store_open_ms":       {perCall("store.open_live") / 1e3, "ms"},
		"search_us":           us("index.search"),
		"navtree_build_us":    us("navtree.build"),
		"navcache_us":         us("navtree.cache"),
		"new_session_us":      us("navigate.new_session"),
		"kpartition_us":       us("core.choose_cut"),
		"dp_us":               us("core.opt_edgecut_dp"),
		"expand_us":           us("navigate.expand"),
		"visualize_us":        us("core.visualize"),
		"show_results_us":     us("navigate.show_results"),
		"rank_us":             us("rank.rank"),
		"navcache_miss_ratio": {ratio(calls("navtree.build"), calls("navtree.cache")), "ratio"},
		"cuts_per_expand":     {ratio(calls("core.choose_cut"), calls("navigate.expand")), "ratio"},
		"nodes_per_build":     {ratio(float64(p.l.nodes), float64(p.l.builds)), "count"},
		"replay_rps":          {float64(requests) / window.Seconds(), "1/s"},
	}
	rep.info = append(rep.info, fmt.Sprintf("replay: %d requests, %d spans, %.0f batches ingested (%.0fus each), trace in %s",
		requests, len(tr.spans), calls("store.ingest"), perCall("store.ingest"), tracePath))
	return rep, nil
}
