// Package lru provides a small mutex-guarded LRU cache for the solver's
// artifact memos (discrete time sets, auxiliary-graph cores) and the
// daemon's schedule cache. Values are shared by reference with every
// getter, so cached artifacts must be immutable. Capacities are tens to
// hundreds of entries — the cache is a bounded map with recency
// eviction, not a high-throughput cache; operations are O(capacity),
// which at these sizes beats maintaining list nodes.
package lru

import "sync"

// Cache is a fixed-capacity least-recently-used cache, safe for
// concurrent use. The zero Cache is unusable; create with New or
// NewSegmented.
//
// A segmented cache keeps entries that were hit since they were put in
// a protected segment of bounded size and evicts from the other,
// probationary segment first, so a stream of entries that are put once
// and never read cannot push out an entry that keeps being read. A
// protected entry pushed out of its full segment goes back to the front
// of the probationary one. With no protected room the cache is a plain
// LRU.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	protCap int
	// prot holds the protected entries, prob the probationary ones.
	prot, prob segment[K, V]
}

// New returns a plain LRU cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewSegmented[K, V](capacity, 0)
}

// NewSegmented returns a cache holding at most capacity entries, of
// which at most protected are entries hit since they were put.
func NewSegmented[K comparable, V any](capacity, protected int) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	protected = max(0, min(protected, capacity-1))
	return &Cache[K, V]{cap: capacity, protCap: protected}
}

// Get returns the value cached under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.prot.find(k); i >= 0 {
		c.prot.touch(i)
		return c.prot.vals[0], true
	}
	i := c.prob.find(k)
	if i < 0 {
		var zero V
		return zero, false
	}
	if c.protCap == 0 {
		c.prob.touch(i)
		return c.prob.vals[0], true
	}
	k, v := c.prob.remove(i)
	c.prot.pushFront(k, v)
	if len(c.prot.keys) > c.protCap {
		c.prob.pushFront(c.prot.remove(len(c.prot.keys) - 1))
	}
	return v, true
}

// Put caches v under k, evicting the least recently used probationary
// entry when the cache is full (the protected segment is smaller than
// the cache, so a full cache always has one). An existing entry for k
// is replaced in place.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prot.replace(k, v) || c.prob.replace(k, v) {
		return
	}
	if len(c.prot.keys)+len(c.prob.keys) >= c.cap {
		c.prob.remove(len(c.prob.keys) - 1)
	}
	c.prob.pushFront(k, v)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.prot.keys) + len(c.prob.keys)
}

// Purge empties the cache.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prot.truncate()
	c.prob.truncate()
}

// segment is a recency-ordered run of entries; keys[0] is the most
// recently used. Callers hold the cache's lock.
type segment[K comparable, V any] struct {
	keys []K
	vals []V
}

func (s *segment[K, V]) find(k K) int {
	for i, key := range s.keys {
		if key == k {
			return i
		}
	}
	return -1
}

// touch moves entry i to the front.
func (s *segment[K, V]) touch(i int) {
	if i == 0 {
		return
	}
	k, v := s.keys[i], s.vals[i]
	copy(s.keys[1:i+1], s.keys[:i])
	copy(s.vals[1:i+1], s.vals[:i])
	s.keys[0], s.vals[0] = k, v
}

// replace stores v under k and moves it to the front if k is present,
// reporting whether it was.
func (s *segment[K, V]) replace(k K, v V) bool {
	i := s.find(k)
	if i < 0 {
		return false
	}
	s.touch(i)
	s.vals[0] = v
	return true
}

func (s *segment[K, V]) pushFront(k K, v V) {
	var zk K
	var zv V
	s.keys = append(s.keys, zk)
	s.vals = append(s.vals, zv)
	s.touch(len(s.keys) - 1)
	s.keys[0], s.vals[0] = k, v
}

// remove deletes entry i and returns it.
func (s *segment[K, V]) remove(i int) (K, V) {
	k, v := s.keys[i], s.vals[i]
	last := len(s.keys) - 1
	copy(s.keys[i:], s.keys[i+1:])
	copy(s.vals[i:], s.vals[i+1:])
	var zk K
	var zv V
	s.keys[last], s.vals[last] = zk, zv
	s.keys, s.vals = s.keys[:last], s.vals[:last]
	return k, v
}

func (s *segment[K, V]) truncate() {
	clear(s.keys)
	clear(s.vals)
	s.keys, s.vals = s.keys[:0], s.vals[:0]
}
