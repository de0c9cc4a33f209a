// Package events is the live-observability substrate of the attack
// pipeline: a race-safe, backpressure-tolerant structured event bus.
//
// Producers in core, engine, and checkpoint publish typed lifecycle
// events (phase enter/exit, DIP progress with running counts, crossover
// decisions, checkpoint writes, budget-starved distinguish verdicts,
// resume replays). The bus fans each event out to
// bounded per-subscriber ring buffers that drop their oldest entries —
// with an events_dropped_total counter — rather than ever blocking the
// publisher: the enumeration hot path must not stall because an SSE
// client stopped reading.
//
// Every event carries a monotonically increasing sequence number, and
// the bus retains a fixed-size history ring so a reconnecting consumer
// (SSE Last-Event-ID) can replay what it missed, as long as the gap
// still fits in the ring. Like the telemetry package, a nil *Bus is a
// valid no-op publisher, so instrumented code pays one nil check when
// observability is disabled.
package events

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Type enumerates the event taxonomy. The strings are the wire format
// (SSE event: field, NDJSON "type" field) and must stay stable.
type Type string

const (
	// TypePhaseEnter / TypePhaseExit bracket an attack phase. Exit
	// carries the phase duration in Fields["seconds"].
	TypePhaseEnter Type = "phase_enter"
	TypePhaseExit  Type = "phase_exit"
	// TypeDIPProgress reports enumeration progress: Count is the
	// running DIP total; Done/Total, when nonzero, are enumerated
	// units of the DIP space (patterns or sim batches).
	TypeDIPProgress Type = "dip_progress"
	// TypeCrossover records the SAT/sim extractor decision:
	// Fields["engine"], ["reason"] and the block ["width"].
	TypeCrossover Type = "crossover"
	// TypeCheckpoint marks a durable checkpoint write; Count is the
	// writer's cumulative write total.
	TypeCheckpoint Type = "checkpoint"
	// TypeResume records a checkpoint resume, before any fresh work:
	// Fields["active"] is the hypothesis in flight and
	// Fields["complete"] whether its DIP set was complete.
	TypeResume Type = "resume"
	// TypeDistinguish reports a distinguish verdict that is not a
	// proof: Fields["reason"] is "unknown_budget" when the conflict
	// budget ran out (the caller asks the pair again at a larger
	// budget, and gives up on the hypothesis past a ceiling).
	TypeDistinguish Type = "distinguish"
	// TypeProgress is the estimator's digest: Fraction, Phase, and
	// ETAMillis are authoritative on this event type.
	TypeProgress Type = "progress"
	// TypeDone is terminal. Publishers close the attack's stream with
	// exactly one done event; Fields["status"] says how it ended.
	TypeDone Type = "done"
)

// Event is one bus record. The zero value of every optional field is
// omitted on the wire, so a marshaled event stays close to its
// information content.
type Event struct {
	// Seq is assigned by the bus at publish: 1, 2, 3, … per bus.
	Seq uint64 `json:"seq"`
	// TS is the publish wall-clock in Unix milliseconds.
	TS int64 `json:"ts_ms"`
	// Type tags the record; see the Type constants.
	Type Type `json:"type"`
	// Phase names the attack phase the event belongs to, when one is
	// in scope (enumerate, decode, algo1, algo2, verify, calibrate).
	Phase string `json:"phase,omitempty"`
	// Count is a running total whose meaning depends on Type: DIPs
	// for dip_progress, writes for checkpoint.
	Count uint64 `json:"count,omitempty"`
	// Done/Total, when Total > 0, express enumerated units of a known
	// universe (sim batches walked, patterns visited).
	Done  uint64 `json:"done,omitempty"`
	Total uint64 `json:"total,omitempty"`
	// Fraction and ETAMillis are set on progress events only.
	Fraction  float64 `json:"fraction,omitempty"`
	ETAMillis int64   `json:"eta_ms,omitempty"`
	// Fields carries small type-specific strings (engine, reason,
	// status, …). Values must be short: events are copied per
	// subscriber.
	Fields map[string]string `json:"fields,omitempty"`
}

// MarshalNDJSON renders the event as one JSON line (no trailing
// newline). It never fails for events built from the constants above.
func (e Event) MarshalNDJSON() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		// Fields is map[string]string and everything else is a scalar;
		// an error here is a programming bug, not an input condition.
		panic(fmt.Sprintf("events: marshal: %v", err))
	}
	return b
}

// Default ring capacities. The history ring bounds how far back a
// Last-Event-ID resume can reach; the subscriber ring bounds how far a
// slow reader may lag before losing its oldest events.
const (
	DefaultHistory    = 1024
	DefaultSubscriber = 256
)

// Bus fans published events out to subscribers. All methods are safe
// for concurrent use, and all are no-ops on a nil receiver.
type Bus struct {
	mu      sync.Mutex
	seq     uint64
	hist    ring
	subs    map[*Subscription]struct{}
	closed  bool
	subCap  int
	dropped *telemetry.Counter // nil-safe; events_dropped_total
	now     func() time.Time   // injected for tests
}

// Options configures a Bus. The zero value selects the defaults.
type Options struct {
	// History is the replay ring capacity (DefaultHistory if <= 0).
	History int
	// Subscriber is the per-subscriber ring capacity
	// (DefaultSubscriber if <= 0).
	Subscriber int
	// Telemetry, when non-nil, hosts the events_dropped_total counter
	// that tallies ring evictions across all subscribers.
	Telemetry *telemetry.Registry
}

// New returns a Bus with the given options.
func New(opts Options) *Bus {
	h := opts.History
	if h <= 0 {
		h = DefaultHistory
	}
	s := opts.Subscriber
	if s <= 0 {
		s = DefaultSubscriber
	}
	return &Bus{
		hist:    newRing(h),
		subs:    make(map[*Subscription]struct{}),
		subCap:  s,
		dropped: opts.Telemetry.Counter("events_dropped_total"),
		now:     time.Now,
	}
}

// Publish stamps ev with the next sequence number and the current time,
// records it in the history ring, and offers it to every subscriber.
// It never blocks: a subscriber whose ring is full loses its oldest
// event instead. Publishing on a nil or closed bus is a no-op.
//
// Offers happen under the bus lock, so concurrent publishers deliver in
// sequence order and a Close cannot overtake an offer in flight.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	ev.Seq = b.seq
	if ev.TS == 0 {
		ev.TS = b.now().UnixMilli()
	}
	b.hist.push(ev)
	for s := range b.subs {
		if s.offer(ev) {
			b.dropped.Add(1)
		}
	}
}

// Subscribe registers a consumer. Events already in the history ring
// with Seq > after are replayed into the subscription first (subject to
// the subscription's own capacity), then live events follow. after = 0
// replays the whole retained history. On a closed bus the subscription
// is returned pre-closed with the matching history replayed, so a late
// consumer still observes the retained tail and then sees the end of
// the stream.
func (b *Bus) Subscribe(after uint64) *Subscription {
	if b == nil {
		s := newSubscription(nil, 1)
		s.Close()
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := newSubscription(b, b.subCap)
	for _, ev := range b.hist.since(after) {
		if s.offer(ev) {
			b.dropped.Add(1)
		}
	}
	if b.closed {
		s.markClosed()
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// History returns the retained events with Seq > after, oldest first.
// It is how non-streaming consumers (sealed jobs, tests) read the tail.
func (b *Bus) History(after uint64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hist.since(after)
}

// LastSeq returns the sequence number of the most recent publish.
func (b *Bus) LastSeq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close marks the end of the stream: every subscription is closed (its
// readers drain what is buffered, then see ok=false) and later
// publishes are dropped. History remains readable. Close is idempotent.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// Subscription is one consumer's bounded view of the stream. Reads and
// the bus's writes may race freely; the ring drops oldest on overflow.
type Subscription struct {
	bus *Bus

	mu     sync.Mutex
	buf    ring
	drops  uint64
	closed bool
	notify chan struct{} // 1-buffered wake-up edge
}

func newSubscription(b *Bus, capacity int) *Subscription {
	return &Subscription{
		bus:    b,
		buf:    newRing(capacity),
		notify: make(chan struct{}, 1),
	}
}

// offer appends ev, evicting the oldest event when full. It reports
// whether an eviction happened, and never blocks.
func (s *Subscription) offer(ev Event) (droppedOne bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	droppedOne = s.buf.full()
	if droppedOne {
		s.drops++
	}
	s.buf.push(ev)
	s.mu.Unlock()
	s.wake()
	return droppedOne
}

func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Poll drains and returns every buffered event, oldest first. It never
// blocks; an empty slice means nothing is pending right now.
func (s *Subscription) Poll() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.drain()
}

// Dropped returns how many events this subscription has evicted.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Wait returns a channel that receives (or is readable) when new events
// may be available or the subscription has closed. After a wake-up the
// caller drains with Poll and, on an empty result, checks Closed.
func (s *Subscription) Wait() <-chan struct{} { return s.notify }

// Closed reports whether the stream has ended. Buffered events remain
// pollable after close; Closed with an empty Poll means fully drained.
func (s *Subscription) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close detaches from the bus and ends the subscription. Idempotent.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	b := s.bus
	s.mu.Unlock()
	if b != nil {
		b.unsubscribe(s)
	}
	s.wake()
}

// markClosed ends the subscription without touching the bus map (the
// bus already removed it).
func (s *Subscription) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wake()
}

// ring is a fixed-capacity FIFO of events that overwrites its oldest
// entry when full. Not self-synchronized; callers hold their own lock.
type ring struct {
	buf   []Event
	start int // index of the oldest event
	n     int // live count
}

func newRing(capacity int) ring {
	if capacity < 1 {
		capacity = 1
	}
	return ring{buf: make([]Event, capacity)}
}

func (r *ring) full() bool { return r.n == len(r.buf) }

func (r *ring) push(ev Event) {
	if r.full() {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		return
	}
	r.buf[(r.start+r.n)%len(r.buf)] = ev
	r.n++
}

// drain removes and returns all events, oldest first.
func (r *ring) drain() []Event {
	if r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	r.start, r.n = 0, 0
	return out
}

// since returns a copy of the events with Seq > after, oldest first,
// without consuming them.
func (r *ring) since(after uint64) []Event {
	var out []Event
	for i := 0; i < r.n; i++ {
		ev := r.buf[(r.start+i)%len(r.buf)]
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out
}
