package serve

import (
	"container/list"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// cacheKey identifies one rendered replay body: the trace's content hash,
// the hash of the exact configuration replayed under (the trace header's
// config with any mode override applied), the canonical detector list
// and the body format. Two requests with the same key are guaranteed the
// same bytes, so the second is served from cache without replaying.
type cacheKey struct {
	trace      string
	configHash uint64
	detectors  string
	text       bool
}

// ResultCache is a mutex-guarded LRU over rendered replay bodies.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recent; values are *cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// NewResultCache returns a cache holding up to max bodies.
func NewResultCache(max int) *ResultCache {
	if max < 1 {
		max = 1
	}
	return &ResultCache{max: max, entries: map[cacheKey]*list.Element{}}
}

// Get returns the cached body for key, bumping its recency.
func (c *ResultCache) Get(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a body, evicting the least recently used entry past the
// capacity. Re-putting an existing key refreshes its recency.
func (c *ResultCache) Put(key cacheKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
	for len(c.entries) > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Counters returns (hits, misses).
func (c *ResultCache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the live entry count.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Name implements Component.
func (c *ResultCache) Name() string { return "cache" }

// Healthy implements Component.
func (c *ResultCache) Healthy() (bool, string) { return true, "ok" }

// Status implements Component.
func (c *ResultCache) Status() any {
	hits, misses := c.Counters()
	return map[string]any{
		"entries":     c.Len(),
		"max_entries": c.max,
		"hits":        hits,
		"misses":      misses,
	}
}

// WritePrometheus implements obs.MetricsWriter.
func (c *ResultCache) WritePrometheus(w io.Writer) error {
	hits, misses := c.Counters()
	var b []byte
	b = fmt.Appendf(b, "# HELP scord_serve_cache_entries cached replay outcomes\n# TYPE scord_serve_cache_entries gauge\nscord_serve_cache_entries %d\n", c.Len())
	b = fmt.Appendf(b, "# HELP scord_serve_cache_hits_total replay requests served from cache\n# TYPE scord_serve_cache_hits_total counter\nscord_serve_cache_hits_total %d\n", hits)
	b = fmt.Appendf(b, "# HELP scord_serve_cache_misses_total replay requests that required computation\n# TYPE scord_serve_cache_misses_total counter\nscord_serve_cache_misses_total %d\n", misses)
	_, err := w.Write(b)
	return err
}
