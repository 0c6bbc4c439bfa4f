// Package faults is a deterministic failpoint registry for resilience
// testing. Production code marks named sites with Inject / InjectCtx;
// tests arm a site with a trigger (always, after-N, seeded-probabilistic)
// and an action (return an error, stall until a deadline) and then drive
// the system through its degradation paths. Disarmed sites cost one
// atomic load, so the hooks stay in production builds — the same
// discipline as freebsd's fail(9) or etcd's gofail, without the code
// generation.
//
// The registry is global: a failpoint armed in one test is visible to
// every goroutine until disarmed. Tests that arm sites must Reset in
// cleanup and must not run in parallel with tests that depend on the
// same sites staying disarmed.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bionav/internal/rng"
)

// Site names wired into this repository, collected here as the failpoint
// catalog (see docs/RESILIENCE.md).
const (
	// SiteDP fires inside Opt-EdgeCut's DP at every cancellation
	// checkpoint: once on entry, then every dpStride fold steps.
	SiteDP = "core/optedgecut.dp"
	// SiteNavCacheGet fires on navigation-tree cache lookups; an error
	// action forces a miss (the caller rebuilds the tree).
	SiteNavCacheGet = "navtree/cache.get"
	// SiteStoreLoad fires at the start of store.LoadDataset; an error
	// action makes the load fail cleanly.
	SiteStoreLoad = "store/dataset.load"
	// SiteJournalAppend fires at the head of journal.Append; an error
	// action drops the record before it reaches the segment (the server
	// logs and counts the miss, the request still succeeds).
	SiteJournalAppend = "journal/append"
	// SiteJournalFsync fires before every journal segment fsync; an error
	// action simulates a failed fsync (full disk, dying device).
	SiteJournalFsync = "journal/fsync"
	// SiteJournalRecover fires once per session during server journal
	// recovery; an error action makes that session's recovery fail — it
	// is logged and counted, never fatal to startup.
	SiteJournalRecover = "server/journal.recover"
	// SiteStoreIngest fires at the head of store.Live.Ingest, before any
	// work; an error action makes the ingest fail cleanly — nothing is
	// appended to the log and no snapshot is published.
	SiteStoreIngest = "store/ingest"
)

// ErrInjected is the default error returned by armed sites with no
// explicit action.
var ErrInjected = errors.New("faults: injected failure")

// Action runs when a site fires. The context is the caller's (Background
// for Inject); actions that wait must honor its cancellation.
type Action func(ctx context.Context) error

// ErrAction returns err when the site fires.
func ErrAction(err error) Action {
	return func(context.Context) error { return err }
}

// SleepAction stalls the caller for d or until its context is done,
// whichever comes first, returning the context error on cancellation.
// This is the "hostile component" simulator: it makes a site arbitrarily
// slow while still honoring deadlines.
func SleepAction(d time.Duration) Action {
	return func(ctx context.Context) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// trigger decides whether a given hit fires.
type trigger struct {
	kind triggerKind
	n    uint64
	p    float64
	src  *rng.Source
}

type triggerKind int

const (
	triggerAlways triggerKind = iota
	triggerAfterN
	triggerProb
)

// Trigger selects which evaluations of an armed site fire.
type Trigger struct{ t trigger }

// Always fires on every evaluation.
func Always() Trigger { return Trigger{trigger{kind: triggerAlways}} }

// AfterN fires on every evaluation after the first n (hit n+1 onward).
func AfterN(n uint64) Trigger { return Trigger{trigger{kind: triggerAfterN, n: n}} }

// Prob fires each evaluation independently with probability p, drawn
// from a SplitMix64 stream seeded with seed — the same seed always fires
// the same subset of hits.
func Prob(p float64, seed uint64) Trigger {
	return Trigger{trigger{kind: triggerProb, p: p, src: rng.New(seed)}}
}

// failpoint is one armed site.
type failpoint struct {
	trig   trigger
	action Action
	hits   uint64
	fires  uint64
}

func (f *failpoint) eval() (Action, bool) {
	f.hits++
	fire := false
	switch f.trig.kind {
	case triggerAlways:
		fire = true
	case triggerAfterN:
		fire = f.hits > f.trig.n
	case triggerProb:
		fire = f.trig.src.Float64() < f.trig.p
	}
	if fire {
		f.fires++
	}
	return f.action, fire
}

var (
	mu sync.Mutex
	// sites maps name to failpoint (guarded by mu).
	sites map[string]*failpoint

	// armed counts armed sites; Inject's fast path reads it without the
	// lock so disarmed builds pay a single atomic load per site.
	armed atomic.Int64
)

// Arm configures the named site to fire per t, running action when it
// does (nil action returns ErrInjected). Re-arming replaces the previous
// configuration and zeroes the site's counters.
func Arm(name string, t Trigger, action Action) {
	if action == nil {
		action = ErrAction(fmt.Errorf("%w at %s", ErrInjected, name))
	}
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*failpoint)
	}
	if _, exists := sites[name]; !exists {
		armed.Add(1)
	}
	sites[name] = &failpoint{trig: t.t, action: action}
}

// Disarm removes the named site; subsequent Injects are no-ops.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := sites[name]; exists {
		delete(sites, name)
		armed.Add(-1)
	}
}

// Reset disarms every site. Tests arm failpoints and Reset in cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(sites)))
	sites = nil
}

// Counts reports how many times the named site was evaluated and how
// many of those evaluations fired. Zero for unarmed sites.
func Counts(name string) (hits, fires uint64) {
	mu.Lock()
	defer mu.Unlock()
	if f, ok := sites[name]; ok {
		return f.hits, f.fires
	}
	return 0, 0
}

// Enabled reports whether any site is armed — callers with expensive
// site setup can skip it entirely in production.
func Enabled() bool { return armed.Load() != 0 }

// Inject evaluates the named site with a background context.
//
//lint:ignore CTX01 convenience entry for ctx-free call sites; failpoint triggers never consult the ctx, only sleep actions do
func Inject(name string) error { return InjectCtx(context.Background(), name) }

// InjectCtx evaluates the named site: if it is armed and its trigger
// fires, the configured action runs and its error is returned. Disarmed
// sites return nil after one atomic load.
func InjectCtx(ctx context.Context, name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	f, ok := sites[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	action, fire := f.eval()
	mu.Unlock()
	if !fire {
		return nil
	}
	// The action runs outside the registry lock: stall actions must not
	// serialize unrelated sites (or Disarm) behind them.
	return action(ctx)
}
