package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"bionav/internal/obs"
)

// Middleware returns next unchanged.
//
// Deprecated: Server.Handler recovers, counts and logs panics itself.
func Middleware(next http.Handler, _ *slog.Logger) http.Handler { return next }

// reqMeta is per-request state shared between the observe middleware and
// the handlers: the request id, and flags handlers raise for the final
// log line.
type reqMeta struct {
	id       string
	degraded bool // set by handleExpand under its own response path
}

type reqMetaKey struct{}

// markDegraded flags the in-flight request as degraded for its log line.
// The flag is written before the response is sent and read after, on the
// same goroutine chain, so a plain bool suffices.
func markDegraded(ctx context.Context) {
	if m, ok := ctx.Value(reqMetaKey{}).(*reqMeta); ok {
		m.degraded = true
	}
}

// observe is the outermost per-request middleware: it assigns (or adopts)
// a request id, records the route/status/latency metrics, emits one
// structured log line per request, and — for ?debug=trace requests or
// every TraceSample'th request — roots a span tree in the context so the
// EXPAND hot path traces itself. A handler panic becomes a JSON 500 (see
// serveRecovered) and is counted and logged like any other response.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		meta := &reqMeta{id: r.Header.Get("X-Request-ID")}
		if meta.id == "" {
			meta.id = obs.NewID("r")
		}
		w.Header().Set("X-Request-ID", meta.id)
		ctx := context.WithValue(r.Context(), reqMetaKey{}, meta)

		var root *obs.Span
		var traceID string
		sampled := s.cfg.TraceSample > 0 && s.reqSeq.Add(1)%uint64(s.cfg.TraceSample) == 0
		if sampled || r.URL.Query().Get("debug") == "trace" {
			root = obs.NewSpan(r.Method + " " + r.URL.Path)
			traceID = obs.NewID("t")
			root.SetAttr("request_id", meta.id)
			root.SetAttr("trace_id", traceID)
			ctx = obs.ContextWithSpan(ctx, root)
		}

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.serveRecovered(next, rec, r.WithContext(ctx), meta.id)
		root.End()

		elapsed := time.Since(start)
		route := routeLabel(r)
		s.met.requests.With(route, strconv.Itoa(rec.status)).Inc()
		s.met.latency.With(route).Observe(elapsed.Seconds())

		if s.cfg.Logger != nil {
			attrs := []slog.Attr{
				slog.String("request_id", meta.id),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("latency", elapsed),
			}
			if meta.degraded {
				attrs = append(attrs, slog.Bool("degraded", true))
			}
			if traceID != "" {
				attrs = append(attrs, slog.String("trace_id", traceID))
			}
			s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}
		if sampled {
			s.met.traces.Inc()
			if s.cfg.Logger != nil {
				if b, err := json.Marshal(root.Summary()); err == nil {
					s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "trace",
						slog.String("trace_id", traceID),
						slog.String("spans", string(b)))
				}
			}
		}
	})
}

// serveRecovered runs next and recovers a panic in it: the response
// becomes a JSON 500 unless headers were already sent, and the panic is
// logged with the request id and its stack. The caller's metrics and
// access line then record the request as usual.
func (s *Server) serveRecovered(next http.Handler, rec *statusRecorder, r *http.Request, id string) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelError, "panic",
				slog.String("request_id", id),
				slog.Any("panic", p),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("stack", string(debug.Stack())))
		}
		if !rec.wroteHeader {
			httpError(rec, http.StatusInternalServerError, errInternal)
		}
	}()
	next.ServeHTTP(rec, r)
}

// errInternal is the body of a 500 from a panicking handler.
var errInternal = errors.New("internal error")

// errOverloaded is the body of a shed 503.
var errOverloaded = errors.New("server overloaded, retry later")

// retryAfter is the Retry-After value, in seconds, of the shed, draining
// and saturated 503s.
const retryAfter = "1"

// limitInFlight is the overload-control middleware: a counting semaphore
// bounds concurrently served requests at Config.MaxInFlight. An
// over-limit request waits in a short queue — at most Config.QueueWait —
// for a slot; if none frees up it is shed with 503 and a Retry-After
// hint instead of piling onto a saturated server. The semaphore is a
// no-op when shedding is disabled (MaxInFlight < 0).
//
// The middleware also anchors the drain protocol (drain.go): apiInFlight
// is incremented before the draining flag is checked, so once Drain has
// stored the flag, any request it did not shed is already visible in the
// counter Drain waits on. Requests arriving after the flag — and requests
// queued for a slot when drainCh closes — are shed with Retry-After.
func (s *Server) limitInFlight(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.apiInFlight.Add(1)
		defer s.apiInFlight.Add(-1)
		if s.draining.Load() {
			w.Header().Set("Retry-After", retryAfter)
			httpError(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// Saturated: wait briefly rather than failing instantly, so a
				// momentary burst rides out without client-visible errors.
				timer := time.NewTimer(s.cfg.QueueWait)
				defer timer.Stop()
				select {
				case s.sem <- struct{}{}:
				case <-timer.C:
					s.met.shed.Inc()
					w.Header().Set("Retry-After", retryAfter)
					httpError(w, http.StatusServiceUnavailable, errOverloaded)
					return
				case <-s.drainCh:
					// The server began draining while this request queued;
					// holding it longer only prolongs the drain.
					w.Header().Set("Retry-After", retryAfter)
					httpError(w, http.StatusServiceUnavailable, errDraining)
					return
				case <-r.Context().Done():
					// Client gave up while queued; nothing useful to send.
					httpError(w, http.StatusServiceUnavailable, errOverloaded)
					return
				}
			}
			defer func() { <-s.sem }()
		}
		next.ServeHTTP(w, r)
	})
}

// withTimeout bounds each request's context to d, so every handler —
// and, through it, the EdgeCut DP — observes one whole-request deadline.
// The handler keeps the connection (unlike http.TimeoutHandler) because
// EXPAND degrades on deadline rather than aborting. d <= 0 disables.
func withTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.wroteHeader {
		return
	}
	r.wroteHeader = true
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	return r.ResponseWriter.Write(b)
}
