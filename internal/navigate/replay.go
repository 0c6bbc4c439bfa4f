package navigate

import (
	"encoding/json"
	"fmt"
	"io"

	"bionav/internal/check"
	"bionav/internal/core"
	"bionav/internal/navtree"
)

// Session export/replay: a navigation's action log serializes to JSON so a
// session can be shared, attached to a bug report, or resumed later. The
// replay applies the *recorded* EdgeCuts rather than re-running the policy
// — the restored view is byte-identical even if the policy or cost model
// has changed since.
//
// The same wire format is the journal's unit of durability: the server
// journals each applied action as one ExportedActions element and rebuilds
// crashed sessions with ReplayActions (docs/RESILIENCE.md §5).

// exportVersion guards the wire format.
const exportVersion = 1

type sessionExport struct {
	Version int            `json:"version"`
	Policy  string         `json:"policy"`
	Actions []actionExport `json:"actions"`
}

type actionExport struct {
	Kind string `json:"kind"`
	Node int    `json:"node,omitempty"`
	// Expand actions record the applied cut so replay is policy-free.
	Cut []core.Edge `json:"cut,omitempty"`
}

// exportAction renders one log entry in wire form, reconstructing an
// EXPAND's cut from its revealed lower roots: the cut edges are exactly
// (parent(r), r) for every revealed root.
func (s *Session) exportAction(a Action) actionExport {
	ae := actionExport{Kind: a.Kind.String(), Node: a.Node}
	if a.Kind == ActionExpand {
		for _, r := range a.Revealed {
			ae.Cut = append(ae.Cut, core.Edge{Parent: s.at.Nav().Parent(r), Child: r})
		}
	}
	return ae
}

// Export writes the session's action history as JSON.
func (s *Session) Export(w io.Writer) error {
	out := sessionExport{Version: exportVersion, Policy: s.policy.Name()}
	for _, a := range s.log {
		out.Actions = append(out.Actions, s.exportAction(a))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ExportedActions returns the wire-format encoding of the log entries from
// index from onward, one JSON value per action — the journal appends these
// one at a time as actions are acknowledged, and ReplayActions accepts
// them back. from == len(log) yields an empty slice.
func (s *Session) ExportedActions(from int) ([]json.RawMessage, error) {
	if from < 0 || from > len(s.log) {
		return nil, fmt.Errorf("navigate: export actions: index %d outside log of %d", from, len(s.log))
	}
	out := make([]json.RawMessage, 0, len(s.log)-from)
	for _, a := range s.log[from:] {
		b, err := json.Marshal(s.exportAction(a))
		if err != nil {
			return nil, fmt.Errorf("navigate: export actions: %w", err)
		}
		out = append(out, b)
	}
	return out, nil
}

// Replay restores an exported session onto a fresh navigation over the
// same navigation tree. The returned session has the recorded visible
// state; costs are re-accounted from the replayed actions. SHOWRESULTS and
// IGNORE are re-applied for the log (their cost model is deterministic);
// the original policy is NOT consulted.
func Replay(nav *navtree.Tree, policy core.Policy, r io.Reader) (*Session, error) {
	var in sessionExport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("navigate: replay: %w", err)
	}
	if in.Version != exportVersion {
		return nil, fmt.Errorf("navigate: replay: unsupported version %d", in.Version)
	}
	s := NewSession(nav, policy)
	if err := s.applyExported(in.Actions); err != nil {
		return nil, err
	}
	return s, nil
}

// ReplayActions restores a session from individually framed wire-format
// actions — the journal's shape. Each element must unmarshal to one
// exported action; the version check is the caller's (the journal writes
// and reads one release's format within one set of segment files).
func ReplayActions(nav *navtree.Tree, policy core.Policy, actions []json.RawMessage) (*Session, error) {
	decoded := make([]actionExport, len(actions))
	for i, raw := range actions {
		if err := json.Unmarshal(raw, &decoded[i]); err != nil {
			return nil, fmt.Errorf("navigate: replay action %d: %w", i, err)
		}
	}
	s := NewSession(nav, policy)
	if err := s.applyExported(decoded); err != nil {
		return nil, err
	}
	return s, nil
}

// applyExported re-applies decoded wire actions to a fresh session.
func (s *Session) applyExported(actions []actionExport) error {
	for i, a := range actions {
		var err error
		switch a.Kind {
		case "EXPAND":
			err = s.replayExpand(a.Node, a.Cut)
		case "SHOWRESULTS":
			_, err = s.ShowResults(a.Node)
		case "IGNORE":
			err = s.Ignore(a.Node)
		case "BACKTRACK":
			err = s.Backtrack()
		default:
			err = fmt.Errorf("unknown action kind %q", a.Kind)
		}
		if err != nil {
			return fmt.Errorf("navigate: replay action %d (%s): %w", i, a.Kind, err)
		}
	}
	return nil
}

// replayExpand applies a recorded cut directly, bypassing the policy. The
// cut is also planted in the solver cache before the expand consumes it:
// a recorded cut was the policy's full solve for that component when it
// was recorded, so a recovered or imported session gets the cache's
// replay speedup (docs/COSTMODEL.md §7) on its next EXPAND of the same
// component — after a BACKTRACK the restored entry answers immediately —
// instead of starting cold.
func (s *Session) replayExpand(node navtree.NodeID, cut []core.Edge) error {
	if len(cut) == 0 {
		return fmt.Errorf("recorded EXPAND has no cut")
	}
	s.cache.store(s.at, node, s.policy.Name(), cut)
	revealed, err := s.at.Expand(node, cut)
	if err != nil {
		s.cache.invalidate(node)
		return err
	}
	check.ActiveTree(s.at)
	s.cache.onExpand(node, cut)
	s.cost.Expands++
	s.cost.ConceptsRevealed += len(revealed)
	s.log = append(s.log, Action{Kind: ActionExpand, Node: node, Revealed: revealed})
	return nil
}
