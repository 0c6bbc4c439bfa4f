package server

import (
	"net/http"
	"runtime"
	"time"

	"bionav/internal/obs"
)

// processStart pins the process birth time for
// bionav_process_start_time_seconds — the standard counter-reset anchor:
// rate() consumers use it to distinguish a restart from a quiet interval.
var processStart = time.Now()

// serverMetrics holds the per-Server instrument handles. They live on the
// Server's own registry — not obs.Default — so every Server instance
// (tests routinely run several per process) scrapes its own counts;
// GET /metrics merges this registry with the process-wide default one.
type serverMetrics struct {
	reg            *obs.Registry
	requests       *obs.CounterVec   // by route and status code
	latency        *obs.HistogramVec // by route
	degraded       *obs.Counter
	shed           *obs.Counter
	timeouts       *obs.Counter
	evicted        *obs.Counter
	traces         *obs.Counter
	recovered      *obs.Counter
	recoveryErrors *obs.Counter
	epochMisses    *obs.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.CounterVec("bionav_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: r.HistogramVec("bionav_http_request_seconds",
			"HTTP request latency, by route.", "route"),
		degraded: r.Counter("bionav_expand_degraded_total",
			"EXPANDs that fell back to the static all-children cut."),
		shed: r.Counter("bionav_requests_shed_total",
			"Requests refused with 503 + Retry-After by overload control."),
		timeouts: r.Counter("bionav_expand_timeouts_total",
			"Degraded EXPANDs caused by the optimization budget deadline."),
		evicted: r.Counter("bionav_sessions_evicted_total",
			"Sessions dropped by TTL expiry or LRU capacity pressure."),
		traces: r.Counter("bionav_traces_sampled_total",
			"Request traces captured by the TraceSample sampler."),
		recovered: r.Counter("bionav_recovered_sessions_total",
			"Sessions rebuilt from the journal by startup recovery."),
		recoveryErrors: r.Counter("bionav_recovery_errors_total",
			"Journaled sessions that failed to rebuild at startup recovery."),
		epochMisses: r.Counter("bionav_recovery_epoch_misses_total",
			"Recovered sessions journaled under a different dataset epoch than the one serving, replayed degraded against current data."),
	}
	r.GaugeFunc("bionav_dataset_epoch",
		"Dataset epoch serving new queries (ingest batches applied since load).", func() float64 {
			return float64(s.live.Current().Epoch)
		})
	r.GaugeFunc("bionav_sessions_live",
		"Navigation sessions currently registered.", func() float64 {
			s.mu.Lock()
			n := len(s.sessions)
			s.mu.Unlock()
			return float64(n)
		})
	r.GaugeFunc("bionav_queue_depth",
		"In-flight /api/ requests holding an overload-control slot.", func() float64 {
			if s.sem == nil {
				return 0
			}
			return float64(len(s.sem))
		})
	// Build-info idiom: a constant-1 gauge whose labels carry the metadata,
	// so dashboards can join runtime and configuration onto any series.
	journaled := "off"
	if s.cfg.Journal != nil {
		journaled = "on"
	}
	r.GaugeVec("bionav_build_info",
		"Constant 1; labels carry the Go runtime version and server configuration.",
		"goversion", "policy", "journal").
		With(runtime.Version(), s.cfg.Policy, journaled).Set(1)
	r.GaugeFunc("bionav_go_goroutines",
		"Goroutines currently live in the process.", func() float64 {
			return float64(runtime.NumGoroutine())
		})
	r.GaugeFunc("bionav_process_start_time_seconds",
		"Unix time the process started, in seconds.", func() float64 {
			return float64(processStart.UnixNano()) / 1e9
		})
	return m
}

// Registry exposes the server's own metric registry, e.g. to mount on a
// debug listener alongside obs.Default.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// routeLabel maps a request path to a fixed label set so metric
// cardinality stays bounded no matter what paths clients probe.
var knownRoutes = map[string]bool{
	"/":              true,
	"/healthz":       true,
	"/readyz":        true,
	"/metrics":       true,
	"/api/query":     true,
	"/api/expand":    true,
	"/api/expandall": true,
	"/api/backtrack": true,
	"/api/ignore":    true,
	"/api/results":   true,
	"/api/export":    true,
	"/api/import":    true,
	"/api/stats":     true,

	"/api/admin/ingest": true,
}

func routeLabel(r *http.Request) string {
	if knownRoutes[r.URL.Path] {
		return r.URL.Path
	}
	return "other"
}
