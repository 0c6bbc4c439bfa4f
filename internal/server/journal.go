package server

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"bionav/internal/faults"
	"bionav/internal/journal"
	"bionav/internal/navigate"
)

// Session durability (docs/RESILIENCE.md §5). With Config.Journal set,
// every session mutation path writes ahead to the journal before the
// response is sent: a create record on /api/query and /api/import, one
// action record per acknowledged navigation action (EXPAND, batch EXPAND
// components, BACKTRACK, SHOWRESULTS), and a close record when a session
// is TTL-reaped or LRU-evicted. On startup Recover rebuilds every live
// session from those records; on graceful shutdown Drain checkpoints the
// journal down to a snapshot of the live sessions.
//
// Durability is subordinate to availability: a failed journal append is
// logged and counted, the request still succeeds, and the failed suffix
// of the session's log is retried on its next action (sess.journaled
// tracks the durable prefix). The acknowledged-implies-recoverable
// guarantee therefore holds exactly when appends succeed — under
// FsyncAlways that is the kill -9-proof contract the chaos harness
// asserts.

// journalCreate records a new session's birth, including the dataset
// epoch it is pinned to. Call after register, with no locks held.
func (s *Server) journalCreate(id string, keywords string, epoch uint64) {
	if s.cfg.Journal == nil {
		return
	}
	err := s.cfg.Journal.Append(journal.Record{
		Type:     journal.TypeCreate,
		Session:  id,
		At:       time.Now().UnixNano(),
		Keywords: keywords,
		Policy:   s.policy.Name(),
		Epoch:    epoch,
	})
	if err != nil {
		s.journalAppendFailed(id, err)
	}
}

// journalActionsLocked appends the session's not-yet-durable log suffix,
// one wire-format record per action, advancing sess.journaled past each
// success. On a failed append it stops — the remaining suffix retries on
// the session's next mutation, preserving record order. Caller holds
// sess.mu; handlers call this before writing the HTTP response, so an
// acknowledged action is journaled (and, under FsyncAlways, on disk).
func (s *Server) journalActionsLocked(id string, sess *session) {
	if s.cfg.Journal == nil {
		return
	}
	frames, err := sess.nav.ExportedActions(sess.journaled)
	if err != nil {
		s.journalAppendFailed(id, err)
		return
	}
	at := time.Now().UnixNano()
	for _, f := range frames {
		err := s.cfg.Journal.Append(journal.Record{
			Type:    journal.TypeAction,
			Session: id,
			At:      at,
			Action:  f,
		})
		if err != nil {
			s.journalAppendFailed(id, err)
			return
		}
		sess.journaled++
	}
}

// journalClose records retired sessions so recovery skips them.
func (s *Server) journalClose(ids ...string) {
	if s.cfg.Journal == nil || len(ids) == 0 {
		return
	}
	at := time.Now().UnixNano()
	for _, id := range ids {
		err := s.cfg.Journal.Append(journal.Record{Type: journal.TypeClose, Session: id, At: at})
		if err != nil {
			s.journalAppendFailed(id, err)
		}
	}
}

func (s *Server) journalAppendFailed(id string, err error) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn("journal append failed", "session", id, "error", err)
	}
}

// pendingSession accumulates one session's journal records during Recover.
type pendingSession struct {
	created  bool
	closed   bool
	keywords string
	epoch    uint64 // dataset epoch of the create record
	last     int64  // newest record stamp (UnixNano); drives the TTL skip
	actions  []json.RawMessage
}

// Recover rebuilds sessions from the journal scanned at journal.Open and
// re-registers them under their original IDs. Per session it re-runs the
// recorded keyword query (served by the nav-tree cache) and replays the
// recorded actions — policy-free, so the restored state is byte-identical
// to what was acknowledged. Sessions with a close record, sessions whose
// newest record is older than the TTL, and sessions created before their
// create record reached the journal are skipped; a session that fails to
// rebuild (query no longer matches, corrupt action, injected
// SiteJournalRecover fault) is logged and counted, never fatal. Returns
// the number of sessions restored.
func (s *Server) Recover(ctx context.Context) (int, error) {
	if s.cfg.Journal == nil {
		return 0, nil
	}
	byID := make(map[string]*pendingSession)
	for _, r := range s.cfg.Journal.Recovered() {
		p := byID[r.Session]
		if p == nil {
			p = &pendingSession{}
			byID[r.Session] = p
		}
		switch r.Type {
		case journal.TypeCreate:
			p.created = true
			p.keywords = r.Keywords
			p.epoch = r.Epoch
		case journal.TypeAction:
			p.actions = append(p.actions, r.Action)
		case journal.TypeClose:
			p.closed = true
		}
		if r.At > p.last {
			p.last = r.At
		}
	}
	// Least recently used first: each recovered session goes to the front
	// of the session table's LRU list, which then holds them in
	// journaled last-use order for the eviction below.
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(byID[a].last, byID[b].last), strings.Compare(a, b))
	})

	now := time.Now()
	recovered := 0
	var maxSeq uint64
	for _, id := range ids {
		// Even skipped sessions advance the ID sequence: a fresh session
		// must never reuse a journaled ID, or its records would merge with
		// the dead session's on the next recovery.
		if seq, ok := parseSessionID(id); ok && seq > maxSeq {
			maxSeq = seq
		}
		p := byID[id]
		if p.closed || !p.created {
			continue
		}
		if now.Sub(time.Unix(0, p.last)) > s.cfg.SessionTTL {
			continue // expired while the server was down
		}
		if err := s.recoverSession(ctx, id, p); err != nil {
			s.met.recoveryErrors.Inc()
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("session recovery failed", "session", id, "error", err)
			}
			continue
		}
		s.met.recovered.Inc()
		recovered++
	}
	s.mu.Lock()
	if maxSeq > s.nextID {
		s.nextID = maxSeq
	}
	closed := s.evictLocked() // MaxSessions applies to recovered sessions too
	s.mu.Unlock()
	s.journalClose(closed...)
	return recovered, nil
}

// recoverSession rebuilds one session and registers it under its old ID.
// Only the latest snapshot is materialized after a restart, so a session
// journaled under an older epoch cannot get its exact dataset back: it
// degrades by replaying against the current epoch, and the mismatch is
// counted (bionav_recovery_epoch_misses_total). When the moved data makes
// the replay invalid, that surfaces as an ordinary recovery error.
func (s *Server) recoverSession(ctx context.Context, id string, p *pendingSession) error {
	if err := faults.InjectCtx(ctx, faults.SiteJournalRecover); err != nil {
		return fmt.Errorf("server: recover %s: %w", id, err)
	}
	snap := s.live.Current()
	if p.epoch != snap.Epoch {
		s.met.epochMisses.Inc()
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("session journaled under a different dataset epoch; replaying against current",
				"session", id, "journaled", p.epoch, "current", snap.Epoch)
		}
	}
	nav, err := s.navTreeFor(ctx, snap, p.keywords)
	if err != nil {
		return fmt.Errorf("server: recover %s: query: %w", id, err)
	}
	restored, err := navigate.ReplayActions(nav, s.policy, p.actions)
	if err != nil {
		return fmt.Errorf("server: recover %s: %w", id, err)
	}
	sess := &session{
		nav:      restored,
		snap:     snap,
		keywords: p.keywords,
		lastUsed: time.Unix(0, p.last),
		// Everything replayed came from the journal; only future actions
		// need appending.
		journaled: len(restored.Log()),
	}
	s.mu.Lock()
	s.insertLocked(id, sess)
	s.mu.Unlock()
	return nil
}

// checkpointFrames returns sess's whole action history in journal framing
// and marks all of it journaled.
func (sess *session) checkpointFrames() ([]json.RawMessage, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	frames, err := sess.nav.ExportedActions(0)
	if err == nil {
		sess.journaled = len(frames)
	}
	return frames, err
}

// parseSessionID inverts the "s%08x" ID format of register.
func parseSessionID(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// checkpointJournal compacts the journal to a snapshot of the live
// sessions: per session one create record and its full action history,
// written to a fresh segment; every older segment — including closed and
// expired history — is dropped. Runs during Drain, after the in-flight
// requests are done.
func (s *Server) checkpointJournal() error {
	if s.cfg.Journal == nil {
		return nil
	}
	type liveSession struct {
		id   string
		sess *session
		at   int64
	}
	s.mu.Lock()
	live := make([]liveSession, 0, len(s.sessions))
	for id, sess := range s.sessions {
		live = append(live, liveSession{id: id, sess: sess, at: sess.lastUsed.UnixNano()})
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })

	var recs []journal.Record
	for _, l := range live {
		frames, err := l.sess.checkpointFrames()
		if err != nil {
			return fmt.Errorf("server: checkpoint %s: %w", l.id, err)
		}
		recs = append(recs, journal.Record{
			Type:     journal.TypeCreate,
			Session:  l.id,
			At:       l.at,
			Keywords: l.sess.keywords,
			Policy:   s.policy.Name(),
			Epoch:    l.sess.snap.Epoch,
		})
		for _, f := range frames {
			recs = append(recs, journal.Record{
				Type:    journal.TypeAction,
				Session: l.id,
				At:      l.at,
				Action:  f,
			})
		}
	}
	if err := s.cfg.Journal.Checkpoint(recs); err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	return nil
}
