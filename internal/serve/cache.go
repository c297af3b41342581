package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"stencilabft/internal/stats"
)

// Result is a finished simulation: the final domain, as the bits the
// workers returned, plus the run's counters.
type Result struct {
	Grid  *GridPayload
	Stats stats.Stats
}

// Key content-addresses a job by its canonical wire document and run
// length. The canonical form (Spec.MarshalJSON of the resolved spec) has
// named stencils expanded to points, elem explicit, inline and uploaded
// grids as inline data and a generator-backed grid as its resolved
// generator reference — so every way of spelling the same computation
// through one kind of grid source hashes to the same key.
func Key(canonical []byte, iters int) string {
	h := sha256.New()
	h.Write(canonical)
	fmt.Fprintf(h, "|iters=%d", iters)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache holds finished results keyed by Key, bounded to max entries with
// FIFO eviction. Deterministic runs make first-write-wins safe: two racers
// computed bit-identical results.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]Result
	order   []string
}

// NewCache builds a cache holding up to max results (max < 1 clamps to 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, entries: make(map[string]Result)}
}

// Get returns the cached result for key, if any.
func (c *Cache) Get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[key]
	return r, ok
}

// Put stores a result, evicting the oldest entry beyond capacity. A key
// already present keeps its first value.
func (c *Cache) Put(key string, r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = r
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
