package engine

import (
	"sync"

	"repro/internal/telemetry"
)

// Pool is an LRU of idle warm engines, keyed by the caller's identity
// string (the attack service keys by canonical-netlist hashes). An
// engine parked here keeps its Tseitin encoding, learned clauses,
// variable activity and budgeter rate, so the next attack over the same
// locked netlist skips the encode entirely and solves with a head start.
//
// Capacity is counted in parked engines, not keys: every Put over
// capacity evicts the least-recently-parked engine outright (its solver
// memory is the expensive part, so eviction means dropping the
// reference and letting the collector reclaim it — there is no
// half-warm state). Take removes the entry it returns; an engine is
// therefore owned by at most one attack at a time, which is what makes
// handing out stateful engines safe without any locking inside them.
type Pool struct {
	mu   sync.Mutex
	cap  int
	idle []poolEntry // oldest first; eviction pops the head
	tel  *telemetry.Registry
}

type poolEntry struct {
	key string
	eng *Engine
}

// NewPool builds a pool holding at most capacity idle engines
// (capacity < 1 is treated as 1).
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{cap: capacity}
}

// SetTelemetry attaches a registry for the engine_pool_* counters.
func (p *Pool) SetTelemetry(r *telemetry.Registry) {
	p.mu.Lock()
	p.tel = r
	p.mu.Unlock()
}

// Take removes and returns the most recently parked engine for key, or
// nil when none is idle. The caller owns the returned engine until it
// is Put back.
func (p *Pool) Take(key string) *Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			eng := p.idle[i].eng
			last := len(p.idle) - 1
			copy(p.idle[i:], p.idle[i+1:])
			p.idle[last] = poolEntry{} // the backing array must not pin the engine
			p.idle = p.idle[:last]
			p.tel.Counter("engine_pool_hits_total").Inc()
			return eng
		}
	}
	p.tel.Counter("engine_pool_misses_total").Inc()
	return nil
}

// Put recycles an engine (detaching the finished attack's context,
// telemetry, events and phase label, while keeping the encoding,
// learned clauses and budgeter rate) and parks it under key, evicting
// the least-recently-parked engine when over capacity. Nil engines are
// ignored.
func (p *Pool) Put(key string, eng *Engine) {
	if eng == nil {
		return
	}
	eng.Recycle()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, poolEntry{key: key, eng: eng})
	for len(p.idle) > p.cap {
		p.idle[0] = poolEntry{} // the backing array must not pin the evicted engine
		p.idle = p.idle[1:]
		p.tel.Counter("engine_pool_evictions_total").Inc()
	}
}

// Len reports the number of parked engines.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
