package service

import (
	"container/list"
	"sync"
	"unsafe"

	"macroop/internal/core"
)

// CachedResult is one cached (and journaled) successful cell outcome: the
// timing result plus the differential oracle's summary. The checksum is
// the cache's self-verification handle — identical to what a direct
// macroop.SimulateChecked of the same cell reports, which is what the
// sustained-load test and the CI smoke assert. It is exported because the
// cluster layer (internal/cluster) moves these records between nodes:
// peer cache-fill responses and failover journal adoption both carry
// exactly this value.
type CachedResult struct {
	Bench    string
	Result   *core.Result
	Checksum uint64
	Commits  int64
	// SourceEpoch is the cluster epoch under which the record was first
	// executed (0 when unclustered). Replicated records carry it so a
	// replay that finds the same cell journaled from two epochs keeps the
	// newest-epoch one deterministically.
	SourceEpoch uint64
}

// approxBytes estimates the record's memory footprint for the cache's
// byte quota: the strings it owns plus the fixed-size structs.
func (r *CachedResult) approxBytes(fp string) int {
	n := len(fp) + len(r.Bench) + int(unsafe.Sizeof(*r)) + int(unsafe.Sizeof(cacheEntry[*CachedResult]{}))
	if r.Result != nil {
		n += int(unsafe.Sizeof(*r.Result)) + len(r.Result.Benchmark) + len(r.Result.ReproFingerprint)
	}
	return n
}

// resultCache is a bounded LRU of values keyed by content fingerprint,
// limited by entry count and, when maxBytes > 0 and it has a size
// function, by an approximate byte quota. It holds the service's cell
// outcomes and its gap reports, and is safe for concurrent use.
type resultCache[V any] struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64
	size     func(v V, key string) int // nil: the entry bound alone applies
	m        map[string]*list.Element
	lru      *list.List // front = most recently used
}

type cacheEntry[V any] struct {
	key   string
	val   V
	bytes int64
}

// newCache builds an LRU of capacity entries (<= 0 means 4096).
func newCache[V any](capacity int, maxBytes int64, size func(v V, key string) int) *resultCache[V] {
	if capacity <= 0 {
		capacity = 4096
	}
	return &resultCache[V]{cap: capacity, maxBytes: maxBytes, size: size, m: make(map[string]*list.Element), lru: list.New()}
}

// newResultCache builds the cell-outcome cache, sized by approxBytes.
func newResultCache(capacity int, maxBytes int64) *resultCache[*CachedResult] {
	return newCache(capacity, maxBytes, (*CachedResult).approxBytes)
}

// Get returns the cached value for the fingerprint, refreshing its LRU
// position.
func (c *resultCache[V]) Get(fp string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[fp]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*cacheEntry[V]).val, true
}

// Put inserts (or refreshes) a value, evicting least recently used
// entries until both the entry bound and the byte quota hold.
func (c *resultCache[V]) Put(fp string, v V) {
	var size int64
	if c.size != nil {
		size = int64(c.size(v, fp))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[fp]; ok {
		ent := e.Value.(*cacheEntry[V])
		c.bytes += size - ent.bytes
		ent.val, ent.bytes = v, size
		c.lru.MoveToFront(e)
	} else {
		c.m[fp] = c.lru.PushFront(&cacheEntry[V]{key: fp, val: v, bytes: size})
		c.bytes += size
	}
	for c.lru.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		tail := c.lru.Back()
		ent := tail.Value.(*cacheEntry[V])
		c.lru.Remove(tail)
		delete(c.m, ent.key)
		c.bytes -= ent.bytes
	}
}

// Keys snapshots every cached fingerprint (unordered). The anti-entropy
// pass digests these to offer records to replica peers.
func (c *resultCache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	return out
}

// Len reports the number of cached values.
func (c *resultCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the cache's approximate resident size.
func (c *resultCache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// flightGroup is a minimal singleflight: concurrent Do calls with the
// same key share one execution of fn. Unlike a cache it holds only
// in-flight calls — completed keys are immediately forgotten (the result
// cache is the durable layer above it).
type flightGroup[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightGroup[V any]() *flightGroup[V] {
	return &flightGroup[V]{m: make(map[string]*flightCall[V])}
}

// Do executes fn once per key among concurrent callers. shared reports
// whether this caller joined an execution another caller started.
func (g *flightGroup[V]) Do(key string, fn func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if call, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.val, true, call.err
	}
	call := &flightCall[V]{done: make(chan struct{})}
	g.m[key] = call
	g.mu.Unlock()

	call.val, call.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}
