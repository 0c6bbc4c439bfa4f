package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"bionav/internal/server"
	"bionav/internal/store"
)

// passes is how many stretches a run's window is cut into. Each pass
// boots a fresh server on a fresh copy of the database and plays the same
// session sequence from session 0, so every request of the sequence is
// played once per pass, doing the same work each time.
const passes = 6

// diffSessions is how many of the first sessions the differential check
// replays in process after the window.
const diffSessions = 16

// passWarmup is each pass's untimed lead-in after the nav-tree cache is
// primed: the heap settles, as in a server that has been up a while.
const passWarmup = 200 * time.Millisecond

// served is one booted server.
type served struct {
	live *store.Live
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

// boot does what bionav-server -db does before it serves: open the live
// corpus (load the base tables, replay the ingest log), build the server
// with the default configuration, warm the solve pool and listen; it
// returns once /readyz answers.
func boot(db string, hc *http.Client) (*served, error) {
	live, err := store.OpenLive(db)
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	srv := server.NewLive(live, server.Config{Logger: logger})
	srv.Warmup()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		live.Close()
		return nil, err
	}
	s := &served{
		live: live, srv: srv,
		hs:   &http.Server{Handler: server.Middleware(srv.Handler(), logger), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln)
	}()
	resp, err := hc.Get(s.base + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// close shuts the server down and waits for its goroutines.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	return errors.Join(err, s.live.Close())
}

// httpBackend is one session over the JSON API.
type httpBackend struct {
	hc      *http.Client
	base    string
	session string
}

func (h *httpBackend) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (h *httpBackend) state(path string, body any) (*state, error) {
	st := &state{}
	if err := h.do(http.MethodPost, path, body, st); err != nil {
		return nil, err
	}
	if h.session != "" && st.Session != h.session {
		return nil, fmt.Errorf("%s answered for session %q, not %q", path, st.Session, h.session)
	}
	h.session = st.Session
	return st, nil
}

func (h *httpBackend) query(keywords string) (*state, error) {
	h.session = ""
	return h.state("/api/query", map[string]string{"keywords": keywords})
}

func (h *httpBackend) expand(node int) (*state, error) {
	return h.state("/api/expand", map[string]any{"session": h.session, "node": node})
}

func (h *httpBackend) backtrack() (*state, error) {
	return h.state("/api/backtrack", map[string]any{"session": h.session})
}

func (h *httpBackend) ignore(node int) (*state, error) {
	return h.state("/api/ignore", map[string]any{"session": h.session, "node": node})
}

func (h *httpBackend) results(node int) (int, error) {
	var listed []struct {
		ID int64 `json:"id"`
	}
	q := url.Values{"session": {h.session}, "node": {strconv.Itoa(node)}}
	if err := h.do(http.MethodGet, "/api/results?"+q.Encode(), nil, &listed); err != nil {
		return 0, err
	}
	seen := make(map[int64]bool, len(listed))
	for _, c := range listed {
		if seen[c.ID] {
			return 0, fmt.Errorf("citation %d listed twice", c.ID)
		}
		seen[c.ID] = true
	}
	return len(listed), nil
}

// httpIngest posts batch k, checks the epoch it published, then checks
// a query for the batch's marker term finds exactly the batch. It reports
// whether the batch went in.
func httpIngest(in *inputs, k int, h *httpBackend, t *tally, record func(opKind, time.Duration)) bool {
	type cit struct {
		ID       int64    `json:"id"`
		Title    string   `json:"title"`
		Authors  []string `json:"authors"`
		Year     int      `json:"year"`
		Terms    []string `json:"terms"`
		Concepts []int    `json:"concepts"`
	}
	var body struct {
		Citations []cit `json:"citations"`
	}
	for _, c := range in.batch(k) {
		concepts := make([]int, len(c.Concepts))
		for i, id := range c.Concepts {
			concepts[i] = int(id)
		}
		body.Citations = append(body.Citations, cit{int64(c.ID), c.Title, c.Authors, c.Year, c.Terms, concepts})
	}
	var resp struct {
		Epoch     uint64 `json:"epoch"`
		Citations int    `json:"citations"`
	}
	t.attempted++
	start := time.Now()
	err := h.do(http.MethodPost, "/api/admin/ingest", body, &resp)
	record(opIngest, time.Since(start))
	if err != nil {
		t.failed++
		t.violate("ingest batch %d: %v", k, err)
		return false
	}
	if resp.Epoch != uint64(k+1) || resp.Citations != batchSize {
		t.violate("ingest batch %d: published epoch %d with %d citations, want %d with %d", k, resp.Epoch, resp.Citations, k+1, batchSize)
	}
	t.checkMarker(k, h)
	return true
}

// sample is one timed request.
type sample struct {
	op  opKind
	lat time.Duration
}

// passResult is what one pass measured.
type passResult struct {
	sessions [][]sample // the requests of each session completed inside the window, in order
	setup    time.Duration
}

// runPass boots a server on db, primes its nav-tree cache, warms it up
// and drives it for length, playing the session sequence from session 0
// with one closed-loop user. With first set it keeps the fingerprints of
// the sessions the differential check replays.
func runPass(in *inputs, hc *http.Client, db string, length time.Duration, first bool, t *tally) (*passResult, error) {
	res := &passResult{}
	runtime.GC()
	start := time.Now()
	sv, err := boot(db, hc)
	if err != nil {
		return nil, fmt.Errorf("boot server: %w", err)
	}
	res.setup = time.Since(start)
	newBackend := func() *httpBackend { return &httpBackend{hc: hc, base: sv.base} }
	discard := func(opKind, time.Duration) {}

	// Fill the nav-tree cache with every Table I query, as a server that
	// has been up a while holds them, so explore's window sees only hits.
	for kw, keywords := range in.keywords {
		s := &session{
			in: in, p: sessionPlan{idx: -1 - kw, keywords: keywords, kw: kw}, b: newBackend(), t: t,
			record: discard, proceed: func() bool { return false },
		}
		s.run()
	}
	runtime.GC()
	// The warm-up plays sessions -1, -2, …, which share no cold-query key
	// with the window's 0, 1, ….
	warmEnd := time.Now().Add(passWarmup)
	warm := func() bool { return time.Now().Before(warmEnd) }
	for i := -1; warm(); i-- {
		s := &session{in: in, p: in.plan(i), b: newBackend(), t: t, record: discard, proceed: warm}
		s.run()
	}

	res.sessions = closedLoop(in, newBackend, length, first, t)
	hc.CloseIdleConnections()
	if err := sv.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	return res, nil
}

// closedLoop plays the session sequence with one user for length, each
// request sent when the last answer is in, and returns the requests of
// the sessions completed inside length.
func closedLoop(in *inputs, newBackend func() *httpBackend, length time.Duration, first bool, t *tally) [][]sample {
	end := time.Now().Add(length)
	var seq [][]sample
	recorder := func(i int) func(opKind, time.Duration) {
		for len(seq) <= i {
			seq = append(seq, nil)
		}
		return func(op opKind, lat time.Duration) { seq[i] = append(seq[i], sample{op, lat}) }
	}
	proceed := func() bool { return time.Now().Before(end) }
	// Each time the sequence asks to go on in time, the session before
	// has completed inside the window.
	complete, asked := 0, 0
	next := func() bool {
		if !proceed() {
			return false
		}
		complete = asked
		asked++
		return true
	}
	ingest := func(k int) bool {
		return httpIngest(in, k, newBackend(), t, recorder((k+1)*len(in.block)))
	}
	play(in, next, ingest, func(i, epoch int) *session {
		return &session{
			in: in, p: in.plan(i), b: newBackend(), t: t, epoch: epoch,
			record: recorder(i), proceed: proceed, keep: first && i < diffSessions,
		}
	})
	return seq[:complete]
}

// httpRun runs the passes, checks the first sessions against an
// in-process replay and reports the end-to-end metrics.
//
// The passes play the same requests, so their differences are the
// machine's: on a shared host, stretches of seconds run a third slower or
// worse. Each request's latency is therefore the median of its plays, one
// per pass, over the sessions every pass completed (cut to whole blocks
// of sessions): a slow stretch covering fewer than half the passes drops
// out, while a cost paid on every play, GC and allocation included,
// stays. EXPAND latency is reported as mean and p90 rather than median:
// cheap drill-down EXPANDs and heavy first cuts make a two-humped
// distribution whose median falls in the gap between them and jumps from
// run to run. Query latency is reported as median and mean: its p90 sits
// on the few largest tree builds and moved by more than a quarter between
// runs on a shared host; the mean still carries that tail. setup_s is the
// median of the passes' boots.
func httpRun(in *inputs, work string, window time.Duration) (*report, error) {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	t := &tally{prints: map[int][]uint64{}}
	var results []*passResult
	for p := 0; p < passes; p++ {
		db := filepath.Join(work, fmt.Sprintf("db%d", p))
		if err := in.dataset.Save(db); err != nil {
			return nil, fmt.Errorf("save dataset: %w", err)
		}
		res, err := runPass(in, hc, db, window/passes, p == 0, t)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	rep := &t.report
	db := filepath.Join(work, "diff")
	if err := in.dataset.Save(db); err != nil {
		return nil, fmt.Errorf("save dataset: %w", err)
	}
	if err := differential(in, db, t.prints, rep); err != nil {
		return nil, err
	}

	n := len(results[0].sessions)
	var setups []time.Duration
	for _, res := range results {
		n = min(n, len(res.sessions))
		setups = append(setups, res.setup)
	}
	if n -= n % len(in.block); n == 0 {
		return nil, fmt.Errorf("a pass completed fewer than %d sessions", len(in.block))
	}
	var lat [numOps][]time.Duration
	for i := 0; i < n; i++ {
		for j, smp := range results[0].sessions[i] {
			plays := []time.Duration{smp.lat}
			for _, res := range results[1:] {
				if o := res.sessions[i]; j < len(o) && o[j].op == smp.op {
					plays = append(plays, o[j].lat)
				}
			}
			lat[smp.op] = append(lat[smp.op], quantile(plays, 0.5))
		}
	}
	if len(lat[opQuery]) == 0 || len(lat[opExpand]) == 0 {
		return nil, fmt.Errorf("no query or expand completed in every pass")
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	rep.metrics = map[string]metric{
		"query_p50_ms":   {ms(quantile(lat[opQuery], 0.50)), "ms"},
		"query_mean_ms":  {ms(mean(lat[opQuery])), "ms"},
		"expand_mean_ms": {ms(mean(lat[opExpand])), "ms"},
		"expand_p90_ms":  {ms(quantile(lat[opExpand], 0.90)), "ms"},
		"setup_s":        {quantile(setups, 0.5).Seconds(), "s"},
	}
	rep.info = append(rep.info, fmt.Sprintf("%d sessions played in each of %d passes", n, passes))
	for op := opQuery; op < numOps; op++ {
		if k := len(lat[op]); k > 0 {
			rep.info = append(rep.info, fmt.Sprintf("%-9s n=%-6d mean %8.3fms  p50 %8.3fms  p90 %8.3fms", opNames[op], k,
				ms(mean(lat[op])), ms(quantile(lat[op], 0.5)), ms(quantile(lat[op], 0.9))))
		}
	}
	rep.info = append(rep.info, fmt.Sprintf("setup by pass %v", setups))
	return rep, nil
}

// differential replays the first sessions in process, ingests included,
// on a fresh copy of the database and requires every view and listing
// the HTTP run's first pass saw.
func differential(in *inputs, db string, prints map[int][]uint64, rep *report) error {
	p, err := openInProcess(in, db, nil)
	if err != nil {
		return err
	}
	defer p.live.Close()
	always := func() bool { return true }
	started := 0
	play(in, func() bool { started++; return started <= diffSessions }, p.ingest, func(i, epoch int) *session {
		return p.session(i, epoch, always, func(opKind, time.Duration) {}, true)
	})
	rep.violationCount += p.t.violationCount
	rep.violations = append(rep.violations, p.t.violations...)
	for i := 0; i < diffSessions; i++ {
		want, got := prints[i], p.t.prints[i]
		if len(got) < len(want) {
			rep.violate("session %d: in-process replay made %d requests, HTTP %d", i, len(got), len(want))
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				rep.violate("session %d: request %d differs between HTTP and the in-process replay", i, j)
				break
			}
		}
	}
	return nil
}

// quantile is the nearest-rank q-quantile.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// mean is the arithmetic mean.
func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
