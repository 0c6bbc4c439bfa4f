// Package obs is BioNav's observability layer: a stdlib-only metrics
// registry with Prometheus text exposition, a context-carried span tracer
// for the EXPAND hot path, structured-logging helpers over log/slog, and
// an opt-in debug mux wiring net/http/pprof.
//
// The package is deliberately dependency-free (standard library only) and
// cheap when idle:
//
//   - Counters and gauges are single atomics; histograms are an array of
//     atomics over one log-linear bucket layout that every histogram
//     shares. Disarmed instrumentation costs one atomic add per event.
//   - Tracing is off unless a request carries a span in its context.
//     FromContext on a bare context returns nil, and every *Span method
//     is nil-safe, so instrumented code calls through without branching —
//     an untraced EXPAND pays one context lookup, not an allocation.
//
// Metric registration is get-or-create: asking a Registry for an existing
// name returns the existing metric (and panics only on a type or label
// mismatch, which is a programming error). Package-level instrumentation
// therefore registers its metrics on Default from variable initializers,
// prometheus-client style, without an init ordering protocol.
//
// Exposition output is deterministic — families sorted by name, series
// sorted by label values — so /metrics is golden-testable. See
// docs/OBSERVABILITY.md for the metric catalog and span glossary.
package obs
