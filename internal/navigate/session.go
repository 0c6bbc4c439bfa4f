// Package navigate implements BioNav's navigation subsystem: interactive
// sessions supporting the EXPAND, SHOWRESULTS, IGNORE and BACKTRACK actions
// of §III with the paper's cost accounting, and the TOPDOWN user simulation
// the experimental evaluation (§VIII-A) is built on.
package navigate

import (
	"context"
	"fmt"
	"sort"

	"bionav/internal/check"
	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// ActionKind enumerates the user actions of the navigation model.
type ActionKind int

// The four actions of §III.
const (
	ActionExpand ActionKind = iota
	ActionShowResults
	ActionIgnore
	ActionBacktrack
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActionExpand:
		return "EXPAND"
	case ActionShowResults:
		return "SHOWRESULTS"
	case ActionIgnore:
		return "IGNORE"
	case ActionBacktrack:
		return "BACKTRACK"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one entry of a session's navigation log.
type Action struct {
	Kind     ActionKind
	Node     navtree.NodeID   // the concept acted upon (-1 for BACKTRACK)
	Revealed []navtree.NodeID // EXPAND: newly revealed concepts
	Listed   int              // SHOWRESULTS: number of citations listed
}

// Cost is the paper's navigation-cost breakdown: 1 per EXPAND click, 1 per
// newly revealed concept the user examines, 1 per citation listed.
type Cost struct {
	Expands          int
	ConceptsRevealed int
	CitationsListed  int
}

// Navigation reports the Fig. 8 metric: concepts revealed + EXPAND actions.
func (c Cost) Navigation() int { return c.Expands + c.ConceptsRevealed }

// Total reports the overall §III cost including SHOWRESULTS listings.
func (c Cost) Total() int { return c.Navigation() + c.CitationsListed }

// Process-wide cut-memo metrics on the default registry, counting the
// EXPANDs of policies that share cuts (core.Policy.CutKey).
var (
	memoHits = obs.Default.Counter("bionav_solver_cache_hits_total",
		"EXPANDs answered from their navigation tree's cut memo (policy skipped).")
	memoMisses = obs.Default.Counter("bionav_solver_cache_misses_total",
		"EXPANDs that found no usable cut in their tree's cut memo and ran the policy.")
)

// Session is one user's navigation over a query result.
type Session struct {
	at     *core.ActiveTree // guarded by caller
	policy core.Policy      // guarded by caller
	log    []Action         // guarded by caller
	cost   Cost             // guarded by caller
}

// NewSession starts a navigation over nav using policy for EXPAND actions.
func NewSession(nav *navtree.Tree, policy core.Policy) *Session {
	if check.Enabled {
		// Deep-assertion builds vet the policy's cost model up front —
		// a broken model corrupts every cut the session will choose.
		switch p := policy.(type) {
		case *core.HeuristicReducedOpt:
			check.Model(p.Model)
		case *core.OptEdgeCutPolicy:
			check.Model(p.Model)
		case *core.CachedHeuristic:
			check.Model(p.Model)
		}
	}
	return &Session{at: core.NewActiveTree(nav), policy: policy}
}

// Active exposes the underlying active tree (read-only use expected).
func (s *Session) Active() *core.ActiveTree { return s.at }

// Policy returns the session's expansion policy.
func (s *Session) Policy() core.Policy { return s.policy }

// Cost returns the cost accumulated so far.
func (s *Session) Cost() Cost { return s.cost }

// Log returns the action log.
func (s *Session) Log() []Action { return s.log }

// Expand performs the EXPAND action on the component rooted at node,
// choosing the EdgeCut with the session policy. It returns the newly
// revealed concepts and charges 1 + len(revealed) to the cost.
func (s *Session) Expand(node navtree.NodeID) ([]navtree.NodeID, error) {
	//lint:ignore CTX01 compatibility wrapper: an unbounded EXPAND is the documented meaning of the ctx-free entry point
	res, err := s.ExpandContext(context.Background(), node)
	return res.Revealed, err
}

// ExpandResult reports one EXPAND's outcome: the revealed concepts plus
// whether the policy's optimization stood behind the applied cut.
type ExpandResult struct {
	Revealed []navtree.NodeID
	// Degraded is true when the applied cut is the static all-children
	// fallback (docs/COSTMODEL.md §7) — the deadline, an injected fault or
	// a solve panic cut the optimization short. The expansion is still a
	// valid navigation step — only its cost optimality is lost.
	Degraded bool
	// Reason is the error that forced the degradation ("context deadline
	// exceeded", "context canceled", …); empty when not degraded.
	Reason string
}

// Grade names the rung of the degradation ladder (docs/COSTMODEL.md §7)
// an EXPAND's cuts sit on, as spans and API responses report it:
// "static" when some component degraded, "full" otherwise.
func Grade(degraded bool) string {
	if degraded {
		return "static"
	}
	return "full"
}

// expanded accounts for one applied EXPAND of node: it charges
// 1 + |revealed| and logs the action.
func (s *Session) expanded(node navtree.NodeID, revealed []navtree.NodeID) {
	check.ActiveTree(s.at)
	s.cost.Expands++
	s.cost.ConceptsRevealed += len(revealed)
	s.log = append(s.log, Action{Kind: ActionExpand, Node: node, Revealed: revealed})
}

// ShowResults lists the distinct citations of node's component, sorted by
// ID, charging one cost unit per citation.
func (s *Session) ShowResults(node navtree.NodeID) ([]corpus.CitationID, error) {
	if node < 0 || node >= s.at.Nav().Len() {
		return nil, fmt.Errorf("navigate: SHOWRESULTS on unknown node %d", node)
	}
	if !s.at.IsVisible(node) {
		return nil, fmt.Errorf("navigate: SHOWRESULTS on hidden node %d", node)
	}
	nav := s.at.Nav()
	seen := make(map[corpus.CitationID]struct{})
	for _, m := range s.at.Members(node) {
		for _, c := range nav.Results(m) {
			seen[c] = struct{}{}
		}
	}
	out := make([]corpus.CitationID, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	s.cost.CitationsListed += len(out)
	s.log = append(s.log, Action{Kind: ActionShowResults, Node: node, Listed: len(out)})
	return out, nil
}

// Ignore records that the user dismissed a visible concept. It is free:
// the examination cost was charged when the concept was revealed.
func (s *Session) Ignore(node navtree.NodeID) error {
	if node < 0 || node >= s.at.Nav().Len() {
		return fmt.Errorf("navigate: IGNORE on unknown node %d", node)
	}
	if !s.at.IsVisible(node) {
		return fmt.Errorf("navigate: IGNORE on hidden node %d", node)
	}
	s.log = append(s.log, Action{Kind: ActionIgnore, Node: node})
	return nil
}

// Backtrack undoes the last EXPAND. The cost already paid is not refunded
// (the user did examine those concepts).
func (s *Session) Backtrack() error {
	if err := s.at.Backtrack(); err != nil {
		return err
	}
	check.ActiveTree(s.at)
	s.log = append(s.log, Action{Kind: ActionBacktrack, Node: -1})
	return nil
}

// Visualize returns the current visible tree (Definition 5).
func (s *Session) Visualize() map[navtree.NodeID]*core.VisibleNode {
	return s.at.Visualize()
}
