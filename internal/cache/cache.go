// Package cache implements the bounded, thread-safe LRU map behind the
// service layer's two caches: the verdict cache, keyed on the raw text
// of containment inputs and on the fields of inference requests, and the
// compile cache, keyed on raw request text. Inputs are not re-rendered,
// so two spellings of one input are two entries. Hit/miss/eviction
// counters feed the /metrics endpoint.
package cache

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity LRU. The zero value is not usable; call New.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	idx       map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry struct {
	key string
	val any
}

// New returns a cache holding at most capacity entries. A capacity <= 0
// disables storage: every Get misses and Put is a no-op (the counters
// still work, so a cache-less server renders honest metrics).
func New(capacity int) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), idx: map[string]*list.Element{}}
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its value and
// recency.
func (c *Cache) Put(key string, val any) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*entry).key)
		c.evictions++
	}
	c.idx[key] = c.ll.PushFront(&entry{key: key, val: val})
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Capacity  int
}

// Stats returns the current counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len(), Capacity: c.capacity}
}
