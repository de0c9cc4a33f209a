// Package cache is the attack service's memoization layer: a generic
// bounded LRU, which the service uses as its content-addressed result
// store keyed by SHA-256 digests of canonical serializations, and a
// reference-counted singleflight group that collapses identical
// in-flight computations onto one execution.
//
// Everything here is dependency-free and safe for concurrent use; the
// singleflight Flight additionally carries a cancel hook so that an
// execution is aborted exactly when its last interested party walks
// away — the semantics a job-cancellation API needs.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// SumParts hashes the concatenation of parts with SHA-256 and returns
// the lowercase-hex digest. Each part is length-prefixed (64-bit
// big-endian) before hashing so distinct part boundaries can never
// collide ("ab","c" vs "a","bc").
func SumParts(parts ...[]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		n := uint64(len(p))
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (56 - 8*i))
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LRU is a bounded least-recently-used map. A capacity of 0 or less
// disables bounding (the LRU grows without eviction). Safe for
// concurrent use.
type LRU[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*list.Element
	l   *list.List // front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty LRU holding at most capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, m: make(map[K]*list.Element), l: list.New()}
}

// Get returns the value stored under k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		c.l.MoveToFront(e)
		return e.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, evicting the least recently used entry if the
// capacity is exceeded.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.Value.(*lruEntry[K, V]).val = v
		c.l.MoveToFront(e)
		return
	}
	c.m[k] = c.l.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.cap > 0 && c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Len returns the number of entries currently held.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// Group collapses concurrent computations of the same key onto a single
// Flight. Unlike the classic singleflight, joiners are reference
// counted: each Join must be paired with either a wait-for-completion or
// a Leave, and when every joiner has left before the flight finished,
// the flight's cancel hook fires — aborting work nobody wants anymore.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*Flight[V]
}

// NewGroup returns an empty singleflight group.
func NewGroup[V any]() *Group[V] { return &Group[V]{m: make(map[string]*Flight[V])} }

// Flight is one in-progress computation. The leader (the Join call that
// created it) runs the work and calls Finish; followers wait on Done or
// bail out with Leave.
type Flight[V any] struct {
	g   *Group[V]
	key string

	// Done is closed by Finish; afterwards Value and Err are immutable.
	Done chan struct{}

	mu       sync.Mutex
	refs     int
	finished bool
	cancel   func()
	val      V
	err      error
}

// Join returns the flight for key, creating it when none is in
// progress. leader is true for the creating call, which owns running
// the computation and must call Finish exactly once. Every Join
// (leader and follower alike) holds one reference.
func (g *Group[V]) Join(key string) (f *Flight[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.mu.Lock()
		f.refs++
		f.mu.Unlock()
		return f, false
	}
	f = &Flight[V]{g: g, key: key, Done: make(chan struct{}), refs: 1}
	g.m[key] = f
	return f, true
}

// SetCancel installs the hook invoked when the last joiner leaves an
// unfinished flight. The leader installs it once the computation's
// context exists. If every reference is already gone the hook fires
// immediately (the joiners left before the leader got started).
func (f *Flight[V]) SetCancel(cancel func()) {
	f.mu.Lock()
	fire := f.refs == 0 && !f.finished
	f.cancel = cancel
	f.mu.Unlock()
	if fire && cancel != nil {
		cancel()
	}
}

// Leave drops one reference without waiting for the result. When the
// last reference leaves an unfinished flight, the cancel hook fires.
// The flight stays joinable until Finish (late joiners resurrect the
// refcount, but the computation may already be winding down — they then
// observe its cancelled result).
func (f *Flight[V]) Leave() {
	f.mu.Lock()
	f.refs--
	fire := f.refs <= 0 && !f.finished
	cancel := f.cancel
	f.mu.Unlock()
	if fire && cancel != nil {
		cancel()
	}
}

// Finish records the computation's outcome, removes the flight from the
// group (so later Joins start fresh) and wakes every waiter. Only the
// leader calls it, exactly once.
func (f *Flight[V]) Finish(v V, err error) {
	f.g.mu.Lock()
	delete(f.g.m, f.key)
	f.g.mu.Unlock()
	f.mu.Lock()
	f.val, f.err = v, err
	f.finished = true
	f.mu.Unlock()
	close(f.Done)
}

// Result returns the outcome recorded by Finish. It must only be called
// after Done is closed.
func (f *Flight[V]) Result() (V, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val, f.err
}
