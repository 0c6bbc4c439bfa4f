package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bionav/internal/core"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/obs"
	"bionav/internal/rank"
	"bionav/internal/store"
)

// layers runs the serving path in process, call for call what the HTTP
// handlers do, minus HTTP and JSON: a shared nav-tree cache keyed by
// (epoch, normalized query), one Heuristic-ReducedOpt session per query,
// and a ranking scorer per dataset snapshot. With a tracer attached, every
// call into a layer is wrapped in a span. Not safe for concurrent use.
type layers struct {
	cur   snapState
	cache *navtree.Cache
	tr    *tracer // nil: untraced
	// Counts the spans cannot give.
	builds, nodes int
}

// snapState pairs a pinned snapshot with the scorer built over it, as the
// server does.
type snapState struct {
	snap   *store.Snapshot
	scorer *rank.Scorer
}

// The server's defaults: nav-cache capacity, reduced-tree budget, EXPAND
// optimization budget.
const (
	navCacheSize = 128
	policyK      = 10
	expandBudget = 2 * time.Second
)

func newLayers(sn *store.Snapshot) *layers {
	return &layers{
		cur:   snapState{snap: sn, scorer: rank.NewScorer(sn.Corpus, sn.Index)},
		cache: navtree.NewCache(navCacheSize),
	}
}

// publish makes sn the snapshot new sessions start on.
func (l *layers) publish(sn *store.Snapshot) {
	sp := l.tr.begin("rank.new_scorer")
	l.cur = snapState{snap: sn, scorer: rank.NewScorer(sn.Corpus, sn.Index)}
	l.tr.end(sp)
}

// tracedPolicy times the policy's cut choice and, inside it, the
// Opt-EdgeCut DP on the reduced tree, read from the opt_edgecut_dp spans
// core opens under the context's span. The choice's self time is the
// k-partition plus mapping the cut back to the active tree.
type tracedPolicy struct {
	core.Policy
	l *layers
}

func (p tracedPolicy) ChooseCut(ctx context.Context, at *core.ActiveTree, root navtree.NodeID) ([]core.Edge, error) {
	sp := p.l.tr.begin("core.choose_cut")
	defer p.l.tr.end(sp)
	obsRoot := obs.NewSpan("choose_cut")
	cut, err := p.Policy.ChooseCut(obs.ContextWithSpan(ctx, obsRoot), at, root)
	obsRoot.End()
	p.l.tr.child("core.opt_edgecut_dp", time.Duration(dpMicros(obsRoot.Summary()))*time.Microsecond)
	return cut, err
}

// dpMicros sums the opt_edgecut_dp spans in a span tree.
func dpMicros(s *obs.SpanSummary) int64 {
	if s.Name == "opt_edgecut_dp" {
		return s.Micros
	}
	var us int64
	for _, c := range s.Children {
		us += dpMicros(c)
	}
	return us
}

// direct is one session over layers; it implements backend.
type direct struct {
	l        *layers
	st       snapState
	keywords string
	nav      *navigate.Session
}

func (d *direct) query(keywords string) (*state, error) {
	defer d.l.tr.end(d.l.tr.begin("request.query"))
	l := d.l
	d.st, d.keywords = l.cur, keywords
	key := navtree.Key{Epoch: d.st.snap.Epoch, Query: navtree.NormalizeQuery(keywords)}
	sp := l.tr.begin("navtree.cache")
	nav, err := l.cache.GetOrBuild(context.Background(), key, func() (*navtree.Tree, error) {
		s := l.tr.begin("index.search")
		ids := d.st.snap.Index.SearchQuery(key.Query)
		l.tr.end(s)
		if len(ids) == 0 {
			return nil, fmt.Errorf("no citations match %q", keywords)
		}
		b := l.tr.begin("navtree.build")
		t := navtree.BuildParallel(d.st.snap.Corpus, ids, runtime.GOMAXPROCS(0))
		l.tr.end(b)
		l.builds++
		l.nodes += t.Len()
		return t, nil
	})
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	policy, err := core.PolicyByName("heuristic", policyK)
	if err != nil {
		return nil, err
	}
	sp = l.tr.begin("navigate.new_session")
	d.nav = navigate.NewSession(nav, tracedPolicy{Policy: policy, l: l})
	l.tr.end(sp)
	return d.render(), nil
}

func (d *direct) expand(node int) (*state, error) {
	defer d.l.tr.end(d.l.tr.begin("request.expand"))
	ctx, cancel := context.WithTimeout(context.Background(), expandBudget)
	defer cancel()
	sp := d.l.tr.begin("navigate.expand")
	res, err := d.nav.ExpandContext(ctx, node)
	d.l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	st := d.render()
	st.Degraded = res.Degraded
	return st, nil
}

func (d *direct) backtrack() (*state, error) {
	defer d.l.tr.end(d.l.tr.begin("request.backtrack"))
	sp := d.l.tr.begin("navigate.backtrack")
	err := d.nav.Backtrack()
	d.l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return d.render(), nil
}

func (d *direct) ignore(node int) (*state, error) {
	defer d.l.tr.end(d.l.tr.begin("request.ignore"))
	sp := d.l.tr.begin("navigate.ignore")
	err := d.nav.Ignore(node)
	d.l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return d.render(), nil
}

func (d *direct) results(node int) (int, error) {
	defer d.l.tr.end(d.l.tr.begin("request.results"))
	sp := d.l.tr.begin("navigate.show_results")
	ids, err := d.nav.ShowResults(node)
	d.l.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = d.l.tr.begin("rank.rank")
	ranked := d.st.scorer.Rank(d.keywords, ids)
	d.l.tr.end(sp)
	listed := 0
	for _, r := range ranked {
		if _, ok := d.st.snap.Corpus.Get(r.ID); ok {
			listed++
		}
	}
	return listed, nil
}

// render builds the state view the server would send.
func (d *direct) render() *state {
	sp := d.l.tr.begin("core.visualize")
	vis := d.nav.Visualize()
	d.l.tr.end(sp)
	at := d.nav.Active()
	st := &state{Results: at.Nav().DistinctTotal()}
	st.Cost.Expands = d.nav.Cost().Expands
	var build func(id navtree.NodeID) node
	build = func(id navtree.NodeID) node {
		v := vis[id]
		n := node{Node: id, Label: v.Label, Count: v.Count, Expandable: v.Expandable}
		for _, c := range v.Children {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	st.Tree = build(at.Nav().Root())
	return st
}
