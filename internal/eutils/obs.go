package eutils

import "bionav/internal/obs"

// Process-wide eutils client metrics on the default registry
// (docs/OBSERVABILITY.md catalogs them). Outcome labels: "ok" for a
// request that eventually succeeded, "retry" for each 429/5xx attempt
// that was retried, "error" for a request that gave up.
var (
	eutilsRequests = obs.Default.CounterVec("bionav_eutils_requests_total",
		"Eutils HTTP attempts by outcome (ok, retry, error).", "outcome")
	eutilsBackoffSeconds = obs.Default.Histogram("bionav_eutils_backoff_seconds",
		"Backoff waits before eutils retries (jitter or server Retry-After).")
)
