package navtree

import (
	"container/list"
	"context"
	"errors"
	"strings"
	"sync"

	"bionav/internal/faults"
)

// NormalizeQuery canonicalizes a keyword query for cache keying:
// whitespace collapses to single spaces, the boolean operators AND / OR /
// NOT canonicalize to uppercase whatever their spelling (the query
// language matches them case-insensitively, see index.SearchQuery), and
// every other term is lowercased. Index term tokenization lowercases
// terms itself, so two queries with equal normal forms produce identical
// search results — the property the navigation-tree cache relies on.
func NormalizeQuery(q string) string {
	fields := strings.Fields(q)
	for i, f := range fields {
		switch strings.ToUpper(f) {
		case "AND", "OR", "NOT":
			fields[i] = strings.ToUpper(f)
		default:
			fields[i] = strings.ToLower(f)
		}
	}
	return strings.Join(fields, " ")
}

// Key identifies one cached navigation tree: a dataset epoch plus a
// normalized query. Keying by epoch makes invalidation versioned rather
// than wholesale — after an ingest bumps the epoch, new queries miss (and
// rebuild against fresh data) simply because their key differs, while
// sessions pinned to the old epoch keep hitting their entries until
// DropEpochsBefore reclaims them.
type Key struct {
	Epoch uint64
	Query string // normalized via NormalizeQuery
}

// Cache is a concurrency-safe LRU cache of built navigation trees, keyed
// by (epoch, normalized query). Trees are immutable, so one cached tree
// can safely back any number of concurrent sessions; only per-session
// state (the active tree) must be rebuilt per user.
type Cache struct {
	mu      sync.Mutex
	cap     int                   // immutable after NewCache
	order   *list.List            // guarded by mu; front = most recently used; element values are *cacheEntry
	items   map[Key]*list.Element // guarded by mu
	flights map[Key]*flight       // guarded by mu; in-progress builds, for GetOrBuild coalescing
	hits    uint64                // guarded by mu
	misses  uint64                // guarded by mu
}

type cacheEntry struct {
	key  Key
	tree *Tree
}

// flight is one in-progress tree build. The leader fills tree/err and
// closes done; waiters block on done or their own context — a waiter's
// cancellation never touches the flight, so it cannot poison the build
// for anyone else.
type flight struct {
	done chan struct{}
	tree *Tree
	err  error
}

// NewCache returns an LRU cache holding at most capacity trees (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		items:   make(map[Key]*list.Element, capacity),
		flights: make(map[Key]*flight),
	}
}

// getLocked is the lookup core shared by Get and GetOrBuild; caller holds
// c.mu. An armed faults.SiteNavCacheGet failpoint forces a miss —
// simulating a failed or cold cache tier; callers rebuild the tree, which
// is the cache's contractual degradation path.
func (c *Cache) getLocked(key Key) (*Tree, bool) {
	if faults.Inject(faults.SiteNavCacheGet) != nil {
		c.misses++
		navCacheMisses.Inc()
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		navCacheMisses.Inc()
		return nil, false
	}
	c.hits++
	navCacheHits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).tree, true
}

// Get returns the cached tree for key, marking it most recently used.
func (c *Cache) Get(key Key) (*Tree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

// GetOrBuild returns the tree for key, building it with build on a miss.
// Concurrent misses on one key coalesce: the first arrival (the leader)
// runs build exactly once while later arrivals wait for its result, so N
// cold-cache requests for one query cost one tree construction instead of
// N. The leader runs build to completion regardless of ctx — the result
// is shared state, not one request's private work — while each waiter
// honors its own ctx and abandons the wait with the ctx error; the flight
// itself is unaffected. A failed build is not cached: waiters of that
// flight share its error, and the next GetOrBuild retries. A build that
// panics fails the same way for its waiters, and the panic propagates to
// the leader's caller.
func (c *Cache) GetOrBuild(ctx context.Context, key Key, build func() (*Tree, error)) (*Tree, error) {
	c.mu.Lock()
	if t, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		return t, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		navCacheCoalesced.Inc()
		select {
		case <-f.done:
			return f.tree, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// err stays errBuildPanic for the waiters if build panics.
	f := &flight{done: make(chan struct{}), err: errBuildPanic}
	c.flights[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.addLocked(key, f.tree)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.tree, f.err = build()
	return f.tree, f.err
}

var errBuildPanic = errors.New("navtree: tree build panicked")

// Add stores the tree under key, evicting the least recently used entry if
// the cache is full. Re-adding an existing key refreshes its tree and
// recency.
func (c *Cache) Add(key Key, t *Tree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, t)
}

func (c *Cache) addLocked(key Key, t *Tree) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).tree = t
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, tree: t})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
		navCacheEvictions.Inc()
	}
}

// DropEpochsBefore evicts every cached tree whose key epoch is below
// epoch, returning how many were dropped — the versioned invalidation an
// ingest swap triggers once no session is pinned to older epochs.
// Same-epoch (and newer) entries are untouched and keep hitting.
func (c *Cache) DropEpochsBefore(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.Epoch < epoch {
			c.order.Remove(el)
			delete(c.items, e.key)
			navCacheEvictions.Inc()
			dropped++
		}
	}
	return dropped
}

// Len reports the number of cached trees.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
