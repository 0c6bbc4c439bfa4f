// Package server implements BioNav's on-line subsystem (§VII): a web
// interface where a keyword query builds a navigation tree and the user
// navigates it through EXPAND / SHOWRESULTS / BACKTRACK actions, each
// expansion running Heuristic-ReducedOpt. State is kept in server-side
// sessions so the active tree survives across requests.
//
// The server is deadline-bounded and sheds load rather than queueing
// unboundedly. The resilience knobs, all on Config (zero value = default,
// negative = disabled where noted):
//
//   - ExpandBudget caps the EdgeCut optimization of one EXPAND. When the
//     budget expires the expansion degrades to the static all-children cut
//     and the response carries "degraded": true (see docs/RESILIENCE.md).
//   - MaxInFlight bounds concurrently served /api/ requests, every EXPAND
//     included; excess requests wait up to QueueWait for a slot and are
//     then shed with 503 + Retry-After. Within its slot, an
//     /api/expandall fans its component solves across at most
//     GOMAXPROCS goroutines (core.SolveComponents).
//   - APITimeout bounds a whole /api/ request via its context.
//
// Liveness is served at /healthz (always 200 while the process runs) and
// readiness at /readyz (503 once the in-flight limit is saturated).
// /api/stats exposes the shed / degraded / timeout counters.
package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/journal"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/obs"
	"bionav/internal/rank"
	"bionav/internal/store"
)

// Config tunes the server.
type Config struct {
	MaxSessions int           // evict oldest beyond this many (default 256)
	SessionTTL  time.Duration // evict sessions idle longer than this (default 30m)
	Policy      string        // expansion policy name, per core.PolicyByName (default "heuristic")
	PolicyK     int           // policy cut/reduction budget (default 10)

	// Resilience knobs — see the package comment and docs/RESILIENCE.md.
	ExpandBudget time.Duration // EdgeCut optimization budget per EXPAND (default 2s; negative disables)
	MaxInFlight  int           // concurrent /api/ requests (default 64; negative disables shedding)
	QueueWait    time.Duration // how long an over-limit request waits for a slot (default 100ms)
	APITimeout   time.Duration // whole-request deadline for /api/ (default 30s; negative disables)

	// Observability knobs — see docs/OBSERVABILITY.md.
	Logger      *slog.Logger // one structured line per request; nil disables
	TraceSample int          // capture every Nth request's span tree and log it (0 disables)

	// Journal is the session write-ahead log (docs/RESILIENCE.md §5): every
	// session mutation is journaled before it is acknowledged, Recover
	// rebuilds live sessions from it after a crash, and Drain checkpoints
	// it on graceful shutdown. nil disables durability entirely — the
	// server then behaves exactly as a journal-less build.
	Journal *journal.Journal
}

func (c *Config) fill() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.PolicyK <= 0 {
		c.PolicyK = 10
	}
	// An unknown policy name, or a K its policy cannot take, normalizes to
	// the default policy here so a Server is always constructible;
	// bionav-server validates the flags loudly first.
	if _, err := core.PolicyByName(c.Policy, c.PolicyK); err != nil {
		c.Policy, c.PolicyK = "heuristic", 10
	}
	if c.ExpandBudget == 0 {
		c.ExpandBudget = 2 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.APITimeout == 0 {
		c.APITimeout = 30 * time.Second
	}
}

// navCacheSize is how many navigation trees the server caches across
// queries.
const navCacheSize = 128

// Server serves the BioNav API over a live corpus. Safe for concurrent use.
type Server struct {
	live *store.Live // live.Current() serves new queries; sessions pin the snapshot they started on
	cfg  Config
	// policy chooses every session's cuts. One value serves them all: each
	// policy core.PolicyByName returns is stateless, as the concurrent
	// solves of core.SolveComponents already require.
	policy   core.Policy
	navCache *navtree.Cache // immutable trees, shared across sessions; keyed by (epoch, query)
	sem      chan struct{}  // in-flight /api/ slots; nil when shedding disabled
	met      *serverMetrics // per-instance registry; /api/stats reads through it
	reqSeq   atomic.Uint64  // request counter driving the trace sampler

	// Drain state (drain.go): draining flips once, drainCh releases queue
	// waiters, apiInFlight counts /api/ requests between middleware entry
	// and response so Drain can wait them out.
	draining       atomic.Bool
	drainOnce      sync.Once
	checkpointOnce sync.Once
	drainCh        chan struct{}
	apiInFlight    atomic.Int64

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu
	lru      *list.List          // guarded by mu; the session IDs, most recently used first
	nextID   uint64              // guarded by mu
}

// session is one user's live navigation. The embedded navigate.Session is
// stateful and not concurrency-safe, so every handler touching nav — or
// rendering state derived from it — holds mu.
//
// expired flips when the session is removed from the server's table (TTL
// sweep or LRU pressure). A handler that looked the session up before the
// sweep may still be navigating it; the flag lets that handler report a
// clean "session expired" instead of answering success for a session that
// no longer exists. The orphaned state itself stays safe — the handler
// owns mu — it is just unreachable afterwards.
type session struct {
	mu       sync.Mutex
	nav      *navigate.Session // guarded by mu
	snap     *store.Snapshot   // immutable: the epoch the session started on, pinned for its lifetime
	keywords string            // immutable after construction
	lastUsed time.Time         // guarded by Server.mu: the TTL clock belongs to the session table
	elem     *list.Element     // guarded by Server.mu: the session's place in Server.lru
	expired  atomic.Bool
	// journaled counts the log entries already appended to the journal
	// (guarded by mu); the suffix beyond it is the not-yet-durable part a
	// failed append leaves behind for the next mutation to retry.
	journaled int
}

// New builds a server over a static snapshot: a memory-only live corpus
// wraps it, so /api/admin/ingest works but ingested batches do not persist.
func New(sn *store.Snapshot, cfg Config) *Server {
	return NewLive(store.NewLive(sn), cfg)
}

// NewLive builds a server over a live corpus. New queries run against
// live.Current() at the time they arrive; each session stays pinned to
// the snapshot it started on until it ends.
func NewLive(live *store.Live, cfg Config) *Server {
	cfg.fill()
	// fill normalized the name and K, so the policy always resolves.
	policy, _ := core.PolicyByName(cfg.Policy, cfg.PolicyK)
	s := &Server{
		live:     live,
		cfg:      cfg,
		policy:   policy,
		navCache: navtree.NewCache(navCacheSize),
		sessions: make(map[string]*session),
		lru:      list.New(),
		drainCh:  make(chan struct{}),
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.met = newServerMetrics(s)
	return s
}

// Warmup does nothing.
//
// Deprecated: a server starts no goroutines of its own; drop the call.
func (s *Server) Warmup() {}

// Close does nothing: Drain checkpoints the journal.
//
// Deprecated: a server holds no goroutines of its own; drop the call.
func (s *Server) Close() {}

// publish evicts the nav-cache entries of epochs nothing can reach
// anymore; handleIngest calls it once store.Live has published a new
// epoch.
func (s *Server) publish() {
	s.navCache.DropEpochsBefore(s.minPinnedEpoch())
}

// minPinnedEpoch reports the oldest epoch still in use: the serving one
// or the oldest a live session is pinned to, whichever is older. Cache
// entries below it are unreachable — no key can ever name them again.
func (s *Server) minPinnedEpoch() uint64 {
	min := s.live.Current().Epoch
	s.mu.Lock()
	for _, sess := range s.sessions {
		if e := sess.snap.Epoch; e < min {
			min = e
		}
	}
	s.mu.Unlock()
	return min
}

// navTreeFor resolves a keyword query to its navigation tree over snap,
// serving repeat queries from the LRU cache. The cache key is
// (epoch, normalized query): the search runs on the normal form, so equal
// keys are guaranteed equal results within one epoch, and keying by epoch
// keeps trees from different dataset versions apart — a pinned session
// keeps hitting its epoch's entries while new queries build against fresh
// data. Concurrent cold-cache requests for one key coalesce onto a single
// build (navtree.Cache.GetOrBuild). A miss traces the index search and the
// tree build as separate children of the nav_tree span.
func (s *Server) navTreeFor(ctx context.Context, snap *store.Snapshot, keywords string) (*navtree.Tree, error) {
	sp := obs.FromContext(ctx).StartChild("nav_tree")
	defer sp.End()
	key := navtree.Key{Epoch: snap.Epoch, Query: navtree.NormalizeQuery(keywords)}
	built := false
	build := func() (*navtree.Tree, error) {
		built = true
		search := sp.StartChild("index_search")
		results := snap.Index.SearchQuery(key.Query)
		search.End()
		if len(results) == 0 {
			return nil, fmt.Errorf("no citations match %q", keywords)
		}
		sp.SetAttr("results", len(results))
		bs := sp.StartChild("navtree_build")
		nav := navtree.Build(snap.Corpus, results)
		bs.SetAttr("nodes", nav.Len())
		bs.SetAttr("attachments", nav.Attachments())
		bs.End()
		return nav, nil
	}
	nav, err := s.navCache.GetOrBuild(ctx, key, build)
	switch {
	case built:
		sp.SetAttr("cache", "miss")
	case err == nil:
		sp.SetAttr("cache", "hit")
	}
	return nav, err
}

// Handler returns the HTTP handler: the HTML UI at "/", the JSON API under
// "/api/", the Prometheus exposition at /metrics, and the probe endpoints
// /healthz and /readyz. API routes sit behind the overload/timeout
// middleware stack; probes and metrics deliberately do not, so they answer
// even when the API is saturated. The whole mux sits inside the observe
// middleware (request id, metrics, structured log line, optional tracing).
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /api/query", s.handleQuery)
	api.HandleFunc("POST /api/expand", s.handleExpand)
	api.HandleFunc("POST /api/expandall", s.handleExpand)
	api.HandleFunc("POST /api/backtrack", s.handleBacktrack)
	api.HandleFunc("POST /api/ignore", s.handleIgnore)
	api.HandleFunc("GET /api/results", s.handleResults)
	api.HandleFunc("GET /api/export", s.handleExport)
	api.HandleFunc("POST /api/import", s.handleImport)
	api.HandleFunc("GET /api/stats", s.handleStats)
	api.HandleFunc("POST /api/admin/ingest", s.handleIngest)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.met.reg, obs.Default))
	mux.Handle("/api/", s.limitInFlight(withTimeout(s.cfg.APITimeout, api)))
	return s.observe(mux)
}

// probeHeaders marks probe responses uncacheable: a proxy replaying a
// stale 200 would defeat the readiness signal entirely.
func probeHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-cache, no-store, max-age=0")
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	probeHeaders(w)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while every in-flight slot is
// taken, so a load balancer stops routing here before requests get shed,
// and 503 for good once Drain has begun.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	probeHeaders(w)
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.sem != nil && len(s.sem) == cap(s.sem) {
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// --- JSON wire types ---

type queryRequest struct {
	Keywords string `json:"keywords"`
}

type nodeView struct {
	Node       int        `json:"node"`
	Label      string     `json:"label"`
	TreeID     string     `json:"treeId,omitempty"`
	Count      int        `json:"count"`
	Expandable bool       `json:"expandable"`
	Children   []nodeView `json:"children,omitempty"`
}

type stateResponse struct {
	Session  string   `json:"session"`
	Keywords string   `json:"keywords"`
	Results  int      `json:"results"`
	Cost     costView `json:"cost"`
	Tree     nodeView `json:"tree"`
	// Degraded is set on an EXPAND response when the EdgeCut optimization
	// of some component was cut short (budget, injected fault, solve
	// panic) and a lesser cut applied; Reason carries the first
	// component's cause ("context deadline exceeded", …). Grade names the
	// rung of the degradation ladder the applied cut sits on ("full",
	// "anytime", "static") — the worst rung across the components.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	Grade          string `json:"grade,omitempty"`
	// DegradedComponents counts the degraded components of an EXPAND:
	// at most 1 on /api/expand, up to every one on /api/expandall.
	DegradedComponents int `json:"degradedComponents,omitempty"`
	// Trace is the request's span tree, attached when the client asked
	// for it with ?debug=trace.
	Trace *obs.SpanSummary `json:"trace,omitempty"`
}

type costView struct {
	Expands          int `json:"expands"`
	ConceptsRevealed int `json:"conceptsRevealed"`
	CitationsListed  int `json:"citationsListed"`
	Navigation       int `json:"navigation"`
}

type actionRequest struct {
	Session string `json:"session"`
	Node    int    `json:"node"`
}

type citationView struct {
	ID      int64    `json:"id"`
	Title   string   `json:"title"`
	Authors []string `json:"authors"`
	Year    int      `json:"year"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	snap := s.live.Current()
	nav, err := s.navTreeFor(r.Context(), snap, req.Keywords)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	sess := &session{nav: navigate.NewSession(nav, s.policy), snap: snap, keywords: req.Keywords}
	id := s.register(sess)
	s.journalCreate(id, req.Keywords, snap.Epoch)
	s.writeState(w, r, id, sess)
}

// handleExpand serves /api/expand, the EXPAND of the component at the
// request's node, solved on the request goroutine, and /api/expandall,
// the EXPAND of every expandable visible component, whose solves
// core.SolveComponents fans out across goroutines. Both answer the usual
// state view; the response counts the degraded components, surfaces the
// first degradation reason and reports the worst grade.
func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	var req actionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sess, err := s.lookup(req.Session)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	// The optimization budget nests inside the request context, so both
	// the per-EXPAND deadline and a client disconnect bound the solves;
	// any component cut short degrades alone.
	ctx := r.Context()
	if s.cfg.ExpandBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ExpandBudget)
		defer cancel()
	}
	all := r.URL.Path == "/api/expandall"
	var results []navigate.ComponentExpand
	resp, status, err := s.act(req.Session, sess, func(nav *navigate.Session) (err error) {
		if !all {
			results, err = nav.ExpandBatchContext(ctx, []navtree.NodeID{req.Node})
			return err
		}
		at := nav.Active()
		var roots []navtree.NodeID
		for _, root := range at.VisibleRoots() {
			if at.ComponentSize(root) > 1 {
				roots = append(roots, root)
			}
		}
		if len(roots) == 0 {
			return errors.New("server: nothing left to expand")
		}
		results, err = nav.ExpandBatchContext(ctx, roots)
		return err
	})
	if err != nil {
		httpError(w, status, err)
		return
	}
	worst := core.GradeFull
	for _, cr := range results {
		worst = max(worst, cr.Grade)
		if !cr.Degraded {
			continue
		}
		s.met.degraded.Inc()
		markDegraded(ctx)
		resp.Degraded = true
		resp.DegradedComponents++
		if resp.DegradedReason == "" {
			resp.DegradedReason = cr.Reason
		}
	}
	resp.Grade = worst.String()
	if resp.Degraded && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.met.timeouts.Inc()
	}
	if r.URL.Query().Get("debug") == "trace" {
		resp.Trace = obs.FromContext(ctx).Summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBacktrack(w http.ResponseWriter, r *http.Request) {
	var req actionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sess, err := s.lookup(req.Session)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	resp, status, err := s.act(req.Session, sess, func(nav *navigate.Session) error {
		return nav.Backtrack()
	})
	if err != nil {
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIgnore records an IGNORE — the user dismissing a visible concept.
// The action mutates only the session log (the visible tree is unchanged),
// but it is journaled like any other mutation so a recovered session's
// history matches what the user did.
func (s *Server) handleIgnore(w http.ResponseWriter, r *http.Request) {
	var req actionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sess, err := s.lookup(req.Session)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	resp, status, err := s.act(req.Session, sess, func(nav *navigate.Session) error {
		return nav.Ignore(req.Node)
	})
	if err != nil {
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.URL.Query().Get("session"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad node: %w", err))
		return
	}
	ids, err := s.showResults(r.URL.Query().Get("session"), sess, node)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Order listings by relevance to the session's query (§I ranking),
	// scored and resolved on the session's pinned snapshot: a mid-session
	// ingest must not change what an open session lists.
	ranked := rank.NewScorer(sess.snap.Corpus, sess.snap.Index).Rank(sess.keywords, ids)
	out := make([]citationView, 0, len(ranked))
	for _, r := range ranked {
		if cit, ok := sess.snap.Corpus.Get(r.ID); ok {
			out = append(out, citationView{
				ID: int64(cit.ID), Title: cit.Title, Authors: cit.Authors, Year: cit.Year,
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExport streams a session's action log as JSON — a shareable,
// replayable navigation state.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r.URL.Query().Get("session"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="bionav-session.json"`)
	// Headers are already sent, so an export error has no status left to
	// report; the client sees a truncated body.
	_ = sess.export(w)
}

// importRequest re-runs an exported session against a fresh query.
type importRequest struct {
	Keywords string          `json:"keywords"`
	Session  json.RawMessage `json:"session"`
}

// handleImport restores an exported navigation: it re-runs the keyword
// query and replays the recorded actions, returning a new live session.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var req importRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	snap := s.live.Current()
	nav, err := s.navTreeFor(r.Context(), snap, req.Keywords)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	restored, err := navigate.Replay(nav, s.policy, bytes.NewReader(req.Session))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	sess := &session{nav: restored, snap: snap, keywords: req.Keywords}
	id := s.register(sess)
	s.journalCreate(id, req.Keywords, snap.Epoch)
	s.journalActions(id, sess) // the imported history is this session's log
	s.writeState(w, r, id, sess)
}

// ingestRequest carries one batch of citations to append to the live
// corpus. Concepts are hierarchy concept IDs, strictly ascending per
// citation; an ID already in the corpus upserts it (last wins).
type ingestRequest struct {
	Citations []ingestCitation `json:"citations"`
}

type ingestCitation struct {
	ID       int64    `json:"id"`
	Title    string   `json:"title"`
	Authors  []string `json:"authors,omitempty"`
	Year     int      `json:"year"`
	Terms    []string `json:"terms,omitempty"`
	Concepts []int    `json:"concepts"`
}

type ingestResponse struct {
	Epoch     uint64 `json:"epoch"`
	Citations int    `json:"citations"`
}

// handleIngest appends a citation batch to the live corpus, which
// publishes the resulting epoch. The whole batch applies or none of it;
// on success new queries immediately see the fresh data, while sessions
// already open keep navigating the snapshot they are pinned to.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Citations) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("server: ingest: empty batch"))
		return
	}
	batch := make([]corpus.Citation, len(req.Citations))
	for i, c := range req.Citations {
		concepts := make([]hierarchy.ConceptID, len(c.Concepts))
		for j, id := range c.Concepts {
			// An ID past the int32 range would wrap to another concept.
			if concepts[j] = hierarchy.ConceptID(id); int(concepts[j]) != id {
				httpError(w, http.StatusUnprocessableEntity,
					fmt.Errorf("server: ingest: citation %d: concept %d out of range", c.ID, id))
				return
			}
		}
		batch[i] = corpus.Citation{
			ID: corpus.CitationID(c.ID), Title: c.Title, Authors: c.Authors,
			Year: c.Year, Terms: c.Terms, Concepts: concepts,
		}
	}
	next, err := s.live.Ingest(batch)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.publish()
	writeJSON(w, http.StatusOK, ingestResponse{Epoch: next.Epoch, Citations: len(batch)})
}

// handleStats is a JSON read-through view over the server's metric
// registry (plus dataset constants); /metrics is the canonical exposition
// of the same counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	queueDepth := 0
	if s.sem != nil {
		queueDepth = len(s.sem)
	}
	snap := s.live.Current()
	hits, misses := s.navCache.Stats()
	stats := map[string]any{
		"concepts":        snap.Tree.Len(),
		"citations":       snap.Corpus.Len(),
		"terms":           snap.Index.Terms(),
		"datasetEpoch":    snap.Epoch,
		"policy":          s.policy.Name(),
		"sessions":        active,
		"sessions_live":   active,
		"queue_depth":     queueDepth,
		"degradedExpands": s.met.degraded.Value(),
		"shedRequests":    s.met.shed.Value(),
		"expandTimeouts":  s.met.timeouts.Value(),
		"sessionsEvicted": s.met.evicted.Value(),
		"navCacheTrees":   s.navCache.Len(),
		"navCacheHits":    hits,
		"navCacheMisses":  misses,
	}
	// Request-latency quantiles, estimated from the same histogram /metrics
	// exposes (bionav_http_request_seconds, all routes merged) — a JSON
	// read-through for dashboards that do not run a Prometheus.
	stats["latencyP50Ms"] = quantileMs(s.met.latency, 0.50)
	stats["latencyP95Ms"] = quantileMs(s.met.latency, 0.95)
	stats["latencyP99Ms"] = quantileMs(s.met.latency, 0.99)
	stats["recoveredSessions"] = s.met.recovered.Value()
	stats["recoveryErrors"] = s.met.recoveryErrors.Value()
	if s.cfg.Journal != nil {
		stats["journalDir"] = s.cfg.Journal.Dir()
		stats["journalTornTails"] = s.cfg.Journal.TornTails()
	}
	writeJSON(w, http.StatusOK, stats)
}

// --- session bookkeeping ---

// register adds sess to the session table under a fresh ID, last used
// now, and evicts what the table then holds beyond its TTL and capacity.
func (s *Server) register(sess *session) string {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("s%08x", s.nextID)
	sess.lastUsed = time.Now()
	s.insertLocked(id, sess)
	closed := s.evictLocked()
	s.mu.Unlock()
	s.journalClose(closed...)
	return id
}

var errNoSession = errors.New("server: unknown or expired session")

func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return nil, errNoSession
	}
	if time.Since(sess.lastUsed) > s.cfg.SessionTTL {
		s.dropLocked(id, sess)
		s.mu.Unlock()
		s.journalClose(id)
		return nil, errNoSession
	}
	s.touchLocked(sess)
	s.mu.Unlock()
	return sess, nil
}

// touchLocked refreshes the session's TTL clock. Every lookup counts as
// activity — mutations and read-only paths (/api/export, the /api/results
// listing, state renders) alike: a session the user is still reading must
// not expire out from under them. Caller holds s.mu.
func (s *Server) touchLocked(sess *session) {
	sess.lastUsed = time.Now()
	s.lru.MoveToFront(sess.elem)
}

// insertLocked adds sess to the session table as id. Its lastUsed must be
// no earlier than any other session's, as it goes to the front of s.lru.
// Caller holds s.mu.
func (s *Server) insertLocked(id string, sess *session) {
	s.sessions[id] = sess
	sess.elem = s.lru.PushFront(id)
}

// dropLocked removes session id from the table and marks it expired.
// Caller holds s.mu.
func (s *Server) dropLocked(id string, sess *session) {
	sess.expired.Store(true)
	delete(s.sessions, id)
	s.lru.Remove(sess.elem)
	s.met.evicted.Inc()
}

// evictLocked drops expired sessions and, if still over capacity, the
// least recently used ones, returning the dropped IDs so the caller can
// journal their close records outside the lock. s.lru holds the sessions
// in lastUsed order, so both kinds are popped off its back. Caller holds
// s.mu.
func (s *Server) evictLocked() []string {
	var closed []string
	now := time.Now()
	for e := s.lru.Back(); e != nil; e = s.lru.Back() {
		id := e.Value.(string)
		sess := s.sessions[id]
		if len(s.sessions) <= s.cfg.MaxSessions && now.Sub(sess.lastUsed) <= s.cfg.SessionTTL {
			break
		}
		s.dropLocked(id, sess)
		closed = append(closed, id)
	}
	return closed
}

// --- locked sections ---
//
// Each one takes sess.mu and releases it by defer: a panic while the lock
// is held, which the recovery middleware answers with a 500, must not
// leave the session locked for good.

// act runs op on sess's navigation under sess.mu. When op succeeds, the
// new log entries are journaled and the new state is rendered under the
// same lock. A failed op answers 422. A session the TTL sweep reaped
// while op ran answers 404: success for a dead session would be a lie.
func (s *Server) act(id string, sess *session, op func(*navigate.Session) error) (stateResponse, int, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := op(sess.nav); err != nil {
		return stateResponse{}, http.StatusUnprocessableEntity, err
	}
	if sess.expired.Load() {
		return stateResponse{}, http.StatusNotFound, errNoSession
	}
	s.journalActionsLocked(id, sess)
	return s.stateLocked(id, sess), http.StatusOK, nil
}

// showResults runs SHOWRESULTS on sess. It is a logged, cost-charged
// action like any other, so it is journaled: a recovered session's cost
// accounting must match.
func (s *Server) showResults(id string, sess *session, node navtree.NodeID) ([]corpus.CitationID, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ids, err := sess.nav.ShowResults(node)
	if err == nil {
		s.journalActionsLocked(id, sess)
	}
	return ids, err
}

// journalActions journals sess's not-yet-durable log entries.
func (s *Server) journalActions(id string, sess *session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.journalActionsLocked(id, sess)
}

// render renders sess's navigation state.
func (s *Server) render(id string, sess *session) stateResponse {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return s.stateLocked(id, sess)
}

// export writes sess's action history as JSON.
func (sess *session) export(w io.Writer) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.nav.Export(w)
}

// --- rendering ---

// writeState renders the navigation state of sess, which the request
// created as session id, even if a burst of newer sessions has already
// evicted it; ?debug=trace attaches the request's span tree.
func (s *Server) writeState(w http.ResponseWriter, r *http.Request, id string, sess *session) {
	resp := s.render(id, sess)
	if r.URL.Query().Get("debug") == "trace" {
		resp.Trace = obs.FromContext(r.Context()).Summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

// stateLocked renders the session's current navigation state. Caller holds
// sess.mu.
func (s *Server) stateLocked(id string, sess *session) stateResponse {
	at := sess.nav.Active()
	vis := sess.nav.Visualize()
	cost := sess.nav.Cost()
	return stateResponse{
		Session:  id,
		Keywords: sess.keywords,
		Results:  at.Nav().DistinctTotal(),
		Cost: costView{
			Expands:          cost.Expands,
			ConceptsRevealed: cost.ConceptsRevealed,
			CitationsListed:  cost.CitationsListed,
			Navigation:       cost.Navigation(),
		},
		Tree: buildView(sess.snap, at.Nav(), vis, at.Nav().Root()),
	}
}

func buildView(snap *store.Snapshot, nav *navtree.Tree, vis map[navtree.NodeID]*core.VisibleNode, id navtree.NodeID) nodeView {
	v := vis[id]
	out := nodeView{
		Node:       id,
		Label:      v.Label,
		TreeID:     snap.Tree.Node(nav.Concept(id)).TreeID,
		Count:      v.Count,
		Expandable: v.Expandable,
	}
	for _, c := range v.Children {
		out.Children = append(out.Children, buildView(snap, nav, vis, c))
	}
	return out
}

// quantileMs renders a latency-quantile estimate in milliseconds. NaN (no
// observations yet) and ±Inf collapse to 0: they are not representable in
// JSON and would make the whole stats encode fail.
func quantileMs(lat *obs.HistogramVec, q float64) float64 {
	v := lat.Quantile(q)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v * 1000
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
