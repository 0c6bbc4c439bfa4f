package navtree

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheGetOrBuildStampede fires 64 concurrent cold-cache requests for
// one key and proves the flight coalescing admits exactly one build: every
// request gets the same tree, and the build function runs once.
func TestCacheGetOrBuildStampede(t *testing.T) {
	f := newFixture(t)
	tree := f.build(t, 1, 2)
	c := NewCache(4)

	const n = 64
	var builds atomic.Int32
	gate := make(chan struct{})
	var started sync.WaitGroup
	started.Add(n)
	go func() {
		// Hold the leader's build open until all 64 requests are in flight,
		// so this is a genuine stampede rather than a sequential parade.
		started.Wait()
		close(gate)
	}()
	build := func() (*Tree, error) {
		builds.Add(1)
		<-gate
		return tree, nil
	}

	got := make([]*Tree, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			got[i], errs[i] = c.GetOrBuild(context.Background(), qk("stampede"), build)
		}(i)
	}
	wg.Wait()

	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds for one key under %d concurrent requests, want exactly 1", b, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if got[i] != tree {
			t.Fatalf("request %d got a different tree", i)
		}
	}
	if hit, ok := c.Get(qk("stampede")); !ok || hit != tree {
		t.Fatal("stampede result was not cached")
	}
}

// TestCacheGetOrBuildWaiterCancel cancels one waiter mid-flight: the
// waiter gets its own ctx error, while the leader's build completes, is
// cached, and serves everyone else — cancellation cannot poison the flight.
func TestCacheGetOrBuildWaiterCancel(t *testing.T) {
	f := newFixture(t)
	tree := f.build(t, 1)
	c := NewCache(4)

	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var leaderTree *Tree
	var leaderErr error
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		leaderTree, leaderErr = c.GetOrBuild(context.Background(), qk("k"), func() (*Tree, error) {
			close(leaderIn)
			<-gate
			return tree, nil
		})
	}()
	<-leaderIn // the flight is registered and building

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetOrBuild(ctx, qk("k"), func() (*Tree, error) {
		t.Error("cancelled waiter must not start its own build")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}

	close(gate)
	leaderDone.Wait()
	if leaderErr != nil || leaderTree != tree {
		t.Fatalf("leader = (%v, %v), want the built tree", leaderTree, leaderErr)
	}
	if hit, ok := c.Get(qk("k")); !ok || hit != tree {
		t.Fatal("waiter cancellation poisoned the cached build")
	}
}

// TestCacheGetOrBuildErrorNotCached checks a failed build propagates its
// error without populating the cache, and the next request retries.
func TestCacheGetOrBuildErrorNotCached(t *testing.T) {
	f := newFixture(t)
	tree := f.build(t, 1)
	c := NewCache(4)
	boom := errors.New("index exploded")

	if _, err := c.GetOrBuild(context.Background(), qk("k"), func() (*Tree, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want build failure", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed build was cached")
	}
	got, err := c.GetOrBuild(context.Background(), qk("k"), func() (*Tree, error) {
		return tree, nil
	})
	if err != nil || got != tree {
		t.Fatalf("retry after failed build = (%v, %v)", got, err)
	}
}

// TestCacheGetOrBuildPanicReleasesFlight panics inside the leader's build,
// as a handler panic the server's middleware recovers would: the waiter
// parked on that flight gets an error at once instead of waiting out its
// own context, the leader's caller still sees the panic, and the next call
// for the key builds.
func TestCacheGetOrBuildPanicReleasesFlight(t *testing.T) {
	f := newFixture(t)
	tree := f.build(t, 1)
	c := NewCache(4)

	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _ = c.GetOrBuild(context.Background(), qk("k"), func() (*Tree, error) {
			close(leaderIn)
			<-gate
			panic("build exploded")
		})
	}()
	<-leaderIn // the flight is registered and building

	coalesced := navCacheCoalesced.Value()
	waiterErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := c.GetOrBuild(ctx, qk("k"), func() (*Tree, error) {
			t.Error("waiter built while the leader's flight was open")
			return nil, nil
		})
		waiterErr <- err
	}()
	for navCacheCoalesced.Value() == coalesced {
		runtime.Gosched() // until the waiter has joined the flight
	}

	close(gate)
	if p := <-leaderPanic; p != "build exploded" {
		t.Fatalf("leader's caller recovered %v, want the build's panic", p)
	}
	if err := <-waiterErr; !errors.Is(err, errBuildPanic) {
		t.Fatalf("waiter err = %v, want errBuildPanic", err)
	}
	built := false
	got, err := c.GetOrBuild(context.Background(), qk("k"), func() (*Tree, error) {
		built = true
		return tree, nil
	})
	if err != nil || got != tree || !built {
		t.Fatalf("call after the panic = (%v, %v), built %v; want a fresh build", got, err, built)
	}
}
