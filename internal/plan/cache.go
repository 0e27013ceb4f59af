package plan

import "sync"

// Cache stores compiled plans keyed by descriptor-set digest, so the
// typed-conflict check of a redeployed bundle skips compilation. Entries
// are immutable once stored; staleness is handled by the consumer, which
// reuses an entry only while its external-provider fingerprint still
// matches, never by invalidation. A reused plan's admission preview
// (Deltas, Admissions) reflects the view it was compiled against.
type Cache struct {
	mu      sync.Mutex
	m       map[string]*Plan
	order   []string // keys in insertion order, oldest first
	hits    uint64
	misses  uint64
	maxSize int
}

// defaultCacheSize bounds a cache; at capacity the oldest-inserted entry
// is evicted (plans are cheap to recompile), so which plans survive
// depends only on the sequence of Puts.
const defaultCacheSize = 256

// NewCache builds an empty plan cache.
func NewCache() *Cache {
	return &Cache{m: map[string]*Plan{}, maxSize: defaultCacheSize}
}

// Get looks a plan up by descriptor-set digest.
func (c *Cache) Get(key string) (*Plan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return p, ok
}

// Put stores a compiled plan under its key. Replacing a stored key keeps
// its place in the eviction order.
func (c *Cache) Put(p *Plan) {
	if c == nil || p == nil || p.Key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[p.Key]; !exists {
		if len(c.order) >= c.maxSize {
			delete(c.m, c.order[0])
			c.order = append(c.order[:0], c.order[1:]...)
		}
		c.order = append(c.order, p.Key)
	}
	c.m[p.Key] = p
}

// Stats reports lookup counters and the current entry count.
func (c *Cache) Stats() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}
