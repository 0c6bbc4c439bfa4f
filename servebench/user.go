package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"
)

// node and state mirror the server's JSON state response: the part a
// user steers by and the checks read.
type node struct {
	Node       int    `json:"node"`
	Label      string `json:"label"`
	Count      int    `json:"count"`
	Expandable bool   `json:"expandable"`
	Children   []node `json:"children,omitempty"`
}

type state struct {
	Session string `json:"session"`
	Results int    `json:"results"`
	Cost    struct {
		Expands int `json:"expands"`
	} `json:"cost"`
	Tree     node `json:"tree"`
	Degraded bool `json:"degraded"`
}

type opKind int

const (
	opQuery opKind = iota
	opExpand
	opBacktrack
	opIgnore
	opResults
	opIngest
	numOps
)

var opNames = [numOps]string{"query", "expand", "backtrack", "ignore", "results", "ingest"}

// backend runs one session's requests: over HTTP against the server, or
// in process straight against the layers.
type backend interface {
	query(keywords string) (*state, error)
	expand(node int) (*state, error)
	backtrack() (*state, error)
	ignore(node int) (*state, error)
	results(node int) (int, error) // number of citations listed
}

// tally accumulates outcomes and, for the differential check, the
// fingerprint after every request of the sessions marked keep.
type tally struct {
	report
	prints map[int][]uint64 // per session index
}

// checkMarker checks, once batch k is in, that a query for the batch's
// marker term through b finds exactly the batch.
func (t *tally) checkMarker(k int, b backend) {
	t.attempted++
	st, err := b.query(markerTerm(k))
	switch {
	case err != nil:
		t.failed++
		t.violate("marker query of batch %d: %v", k, err)
	case st.Results != batchSize:
		t.violate("marker query of batch %d found %d citations, want %d", k, st.Results, batchSize)
	}
}

// A session is the bionav-loadgen user: a query, then sessionActions
// requests drawn from the TOPDOWN action mix below, normalized over the
// actions valid in the current view.
const (
	sessionActions  = 6
	weightExpand    = 50
	weightResults   = 25
	weightBacktrack = 15
	weightIgnore    = 10
)

// session drives one user session through b and checks every response.
type session struct {
	in      *inputs
	p       sessionPlan
	b       backend
	epoch   int                                // batches ingested before the session started
	record  func(op opKind, lat time.Duration) // latency sink
	proceed func() bool                        // runs before each further request; false ends the session
	t       *tally
	keep    bool // record fingerprints for the differential check
	results int
	expands int
}

func (s *session) fail(op opKind, err error) {
	s.t.failed++
	s.t.violate("session %d (%q) %s: %v", s.p.idx, s.p.keywords, opNames[op], err)
}

func (s *session) note(v uint64) {
	if s.keep {
		s.t.prints[s.p.idx] = append(s.t.prints[s.p.idx], v)
	}
}

// timed runs one request and records its latency.
func (s *session) timed(op opKind, call func() error) error {
	s.t.attempted++
	start := time.Now()
	err := call()
	s.record(op, time.Since(start))
	if err != nil {
		s.fail(op, err)
	}
	return err
}

// run plays the session script until it ends or proceed says stop.
func (s *session) run() {
	var st *state
	if s.timed(opQuery, func() (err error) { st, err = s.b.query(s.p.keywords); return }) != nil {
		return
	}
	s.checkQuery(st)
	s.results = st.Results
	prev := s.observe(st)
	var undo []uint64 // the view before each EXPAND still undoable
	for i := 0; i < sessionActions && s.proceed(); i++ {
		visible := flatten(&st.Tree, nil)
		var expandable []*node
		for _, n := range visible {
			if n.Expandable {
				expandable = append(expandable, n)
			}
		}
		switch s.choose(len(expandable) > 0, len(undo) > 0) {
		case opExpand:
			target := weighted(s.p.rng.IntN, expandable)
			if st = s.expand(st, target.Node); st == nil {
				return
			}
			undo = append(undo, prev)
		case opBacktrack:
			var next *state
			if s.timed(opBacktrack, func() (err error) { next, err = s.b.backtrack(); return }) != nil {
				return
			}
			if fingerprint(next) != undo[len(undo)-1] {
				s.t.violate("session %d: BACKTRACK did not restore the previous view", s.p.idx)
			}
			undo = undo[:len(undo)-1]
			st = next
		case opIgnore:
			target := visible[s.p.rng.IntN(len(visible))]
			var next *state
			if s.timed(opIgnore, func() (err error) { next, err = s.b.ignore(target.Node); return }) != nil {
				return
			}
			if fingerprint(next) != prev {
				s.t.violate("session %d: IGNORE %d changed the view", s.p.idx, target.Node)
			}
			st = next
		case opResults:
			if !s.list(st) {
				return
			}
			continue
		}
		prev = s.observe(st)
	}
}

// list runs SHOWRESULTS on a visible node picked by weight and checks it
// listed as many citations as the view promised. It reports whether the
// request succeeded.
func (s *session) list(st *state) bool {
	target := weighted(s.p.rng.IntN, flatten(&st.Tree, nil))
	var listed int
	if s.timed(opResults, func() (err error) { listed, err = s.b.results(target.Node); return }) != nil {
		return false
	}
	if listed != target.Count {
		s.t.violate("session %d: SHOWRESULTS %d listed %d citations, view says %d", s.p.idx, target.Node, listed, target.Count)
	}
	s.note(uint64(listed))
	return true
}

// observe checks that the session's result count held, records the
// view's fingerprint and returns it.
func (s *session) observe(st *state) uint64 {
	if st.Results != s.results {
		s.t.violate("session %d: result count moved from %d to %d inside a session", s.p.idx, s.results, st.Results)
	}
	fp := fingerprint(st)
	s.note(fp)
	return fp
}

// expand runs one EXPAND and checks it revealed something and charged
// exactly one EXPAND. It returns nil when the request failed.
func (s *session) expand(st *state, target int) *state {
	var next *state
	if s.timed(opExpand, func() (err error) { next, err = s.b.expand(target); return }) != nil {
		return nil
	}
	s.expands++
	switch {
	case next.Degraded:
		s.t.violate("session %d: EXPAND %d degraded", s.p.idx, target)
	case next.Cost.Expands != s.expands:
		s.t.violate("session %d: cost reports %d EXPANDs, want %d", s.p.idx, next.Cost.Expands, s.expands)
	case len(flatten(&next.Tree, nil)) <= len(flatten(&st.Tree, nil)):
		s.t.violate("session %d: EXPAND %d revealed nothing", s.p.idx, target)
	}
	return next
}

// checkQuery compares a query response with the result-count oracle.
func (s *session) checkQuery(st *state) {
	switch want := s.in.expectedResults(s.p, s.epoch); {
	case st.Results != want:
		s.t.violate("session %d: %q returned %d results at epoch %d, oracle says %d",
			s.p.idx, s.p.keywords, st.Results, s.epoch, want)
	case st.Tree.Node != 0 || st.Tree.Count != st.Results || len(st.Tree.Children) != 0:
		s.t.violate("session %d: fresh view is not the collapsed root over all %d results", s.p.idx, st.Results)
	case st.Cost.Expands != 0:
		s.t.violate("session %d: fresh session already charged %d EXPANDs", s.p.idx, st.Cost.Expands)
	}
}

// choose draws the next action from the mix, over the valid ones.
func (s *session) choose(canExpand, canBacktrack bool) opKind {
	type cand struct {
		op     opKind
		weight int
	}
	cands := []cand{{opResults, weightResults}, {opIgnore, weightIgnore}}
	if canExpand {
		cands = append(cands, cand{opExpand, weightExpand})
	}
	if canBacktrack {
		cands = append(cands, cand{opBacktrack, weightBacktrack})
	}
	total := 0
	for _, c := range cands {
		total += c.weight
	}
	pick := s.p.rng.IntN(total)
	for _, c := range cands {
		if pick < c.weight {
			return c.op
		}
		pick -= c.weight
	}
	return opResults
}

// weighted picks a node with probability proportional to its count plus
// one: TOPDOWN users chase the heavy components.
func weighted(intn func(int) int, nodes []*node) *node {
	total := 0
	for _, n := range nodes {
		total += n.Count + 1
	}
	pick := intn(total)
	for _, n := range nodes {
		if pick < n.Count+1 {
			return n
		}
		pick -= n.Count + 1
	}
	return nodes[len(nodes)-1]
}

// flatten lists the visible tree in depth-first order.
func flatten(n *node, out []*node) []*node {
	out = append(out, n)
	for i := range n.Children {
		out = flatten(&n.Children[i], out)
	}
	return out
}

// fingerprint hashes the visible tree and result count — what a user
// sees, minus the session id and the cost charged so far.
func fingerprint(st *state) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strconv.Itoa(st.Results)))
	var walk func(n *node)
	walk = func(n *node) {
		fmt.Fprintf(h, "(%d|%s|%d|%t", n.Node, n.Label, n.Count, n.Expandable)
		for i := range n.Children {
			walk(&n.Children[i])
		}
		h.Write([]byte{')'})
	}
	walk(&st.Tree)
	return h.Sum64()
}

// play runs sessions 0, 1, 2, … while proceed holds. With ingestion, batch
// k goes in before block k+1, so every play of the sequence sees the same
// epochs at the same sessions. ingest reports whether the batch went in;
// newSession builds session i at the given epoch.
func play(in *inputs, proceed func() bool, ingest func(k int) bool, newSession func(i, epoch int) *session) {
	epoch := 0
	for i := 0; proceed(); i++ {
		if in.spec.ingest && i > 0 && i%len(in.block) == 0 {
			if !ingest(epoch) {
				return
			}
			epoch++
		}
		newSession(i, epoch).run()
	}
}
