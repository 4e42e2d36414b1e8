// Package cache is the content-addressed result cache behind dsplacerd
// (DESIGN.md §11, §14). Keys are SHA-256 digests over the request's
// semantic inputs — netlist JSON, device config, and the placement
// core.Config — so an identical resubmission is served from memory without
// a second placement run; because the key is pure content, results are
// location-independent and can be shared across daemons.
//
// Storage is pluggable behind the Store interface: LRU is the in-process
// implementation, whose one lock guards an O(1) map lookup and list move,
// Peered composes a local store with remote peers, and cache/remote serves
// any Store over TCP. Values are opaque byte blobs so every implementation
// — in-process or across the network — speaks the same type. Hit/miss
// counters feed the /metrics endpoint.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Store is a pluggable placement-result cache. Implementations must be safe
// for concurrent use. Callers must treat returned values as shared and
// immutable; implementations may likewise retain the Put value without
// copying.
type Store interface {
	// Get returns the value cached under k, if any.
	Get(k Key) ([]byte, bool)
	// Put stores v under k, replacing any existing value.
	Put(k Key, v []byte)
	// Stats returns cumulative hit/miss counters and current occupancy.
	Stats() Stats
}

// Key is the content digest of a request's inputs.
type Key [sha256.Size]byte

// KeyOf hashes the given parts into a Key. Each part is length-prefixed so
// the digest is injective over the part boundaries: KeyOf(a, bc) and
// KeyOf(ab, c) differ even though their concatenations agree.
func KeyOf(parts ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a point-in-time census of the cache.
type Stats struct {
	Hits, Misses int64
	Entries      int
	Capacity     int
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key Key
	val []byte
}

// LRU is a fixed-capacity least-recently-used Store guarded by one lock.
// Values are stored as-is; callers must treat returned values as shared
// and immutable.
type LRU struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; stores *entry
	byKey    map[Key]*list.Element

	hits, misses int64
}

// NewLRU creates a cache holding at most capacity entries. Capacity <= 0
// selects a default of 64.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		capacity = 64
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[Key]*list.Element, capacity),
	}
}

// Get returns the cached value for k and marks it most recently used.
func (c *LRU) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores v under k, replacing any existing value, and evicts the least
// recently used entry if the cache is over capacity.
func (c *LRU) Put(k Key, v []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry).val = v
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&entry{key: k, val: v})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
	}
}

// Stats returns cumulative hit/miss counters and current occupancy.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Capacity: c.capacity}
}
