package checkpoint

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/telemetry"
)

// Cadence defaults: a snapshot becomes due after this many progress
// events (DIPs enumerated) or this much wall time, whichever comes
// first.
const (
	DefaultEveryEvents = 4096
	DefaultInterval    = 2 * time.Second
)

// WriterConfig parameterizes a Writer.
type WriterConfig struct {
	// Path is the snapshot file; each write atomically replaces it.
	Path string
	// EveryEvents makes a snapshot due after that many progress events
	// (0 = DefaultEveryEvents; negative values are rejected).
	EveryEvents int
	// Interval makes a snapshot due after that much wall time
	// (0 = DefaultInterval).
	Interval time.Duration
	// OracleHash is stamped into every snapshot (see Snapshot.OracleHash).
	OracleHash string
	// Telemetry, when non-nil, receives the checkpoint_* counters.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives a checkpoint event after every
	// successful snapshot write (published from the writer goroutine,
	// off the attack's hot path).
	Events *events.Bus
}

// Writer owns checkpoint I/O so the attack's hot loop never does: the
// attack goroutine calls Tick (two atomic loads) per progress event and,
// when a snapshot is due, hands a fully built Snapshot to Offer, which
// is a non-blocking channel send. A dedicated goroutine does the
// encoding and the atomic file write; if it falls behind, Offer replaces
// the stale pending snapshot with the newer one (dropping an
// intermediate snapshot only widens the resume gap, never corrupts it).
type Writer struct {
	cfg  WriterConfig
	ch   chan *Snapshot
	stop chan struct{}
	done chan struct{}

	events    atomic.Uint64
	timerDue  atomic.Bool
	closeOnce sync.Once

	writes  atomic.Uint64
	drops   atomic.Uint64
	errored atomic.Uint64

	cWrites *telemetry.Counter
	cErrors *telemetry.Counter
	cDrops  *telemetry.Counter
	gBytes  *telemetry.Gauge
}

// NewWriter validates the config and starts the writer goroutine.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("checkpoint: writer needs a path")
	}
	if cfg.EveryEvents < 0 {
		return nil, fmt.Errorf("checkpoint: negative event cadence %d", cfg.EveryEvents)
	}
	if cfg.EveryEvents == 0 {
		cfg.EveryEvents = DefaultEveryEvents
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	w := &Writer{
		cfg:     cfg,
		ch:      make(chan *Snapshot, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		cWrites: cfg.Telemetry.Counter("checkpoint_writes_total"),
		cErrors: cfg.Telemetry.Counter("checkpoint_write_errors_total"),
		cDrops:  cfg.Telemetry.Counter("checkpoint_dropped_total"),
		gBytes:  cfg.Telemetry.Gauge("checkpoint_bytes"),
	}
	go w.run()
	return w, nil
}

// Path returns the snapshot file this writer maintains.
func (w *Writer) Path() string { return w.cfg.Path }

// Writes returns the number of snapshots successfully persisted.
func (w *Writer) Writes() uint64 { return w.writes.Load() }

// Tick records n progress events and reports whether a snapshot is due
// (event quota reached or the interval timer fired). It is cheap enough
// for per-DIP call sites: two atomic operations, no locks, no I/O.
func (w *Writer) Tick(n uint64) bool {
	if n > 0 && w.events.Add(n) >= uint64(w.cfg.EveryEvents) {
		return true
	}
	return w.timerDue.Load()
}

// Offer hands a snapshot to the writer goroutine and resets the cadence
// clock. It never blocks: when a previous snapshot is still pending it
// is evicted in favor of the newer one.
func (w *Writer) Offer(s *Snapshot) {
	w.events.Store(0)
	w.timerDue.Store(false)
	select {
	case w.ch <- s:
		return
	default:
	}
	select {
	case <-w.ch:
		w.drops.Add(1)
		w.cDrops.Inc()
	default:
	}
	select {
	case w.ch <- s:
	default:
		w.drops.Add(1)
		w.cDrops.Inc()
	}
}

// Close stops the writer after flushing any pending snapshot, so the
// last observed progress is on disk when the process exits cleanly.
// Safe to call more than once; every caller blocks until the flush.
func (w *Writer) Close() {
	w.closeOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Writer) run() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case s := <-w.ch:
			w.write(s)
		case <-tick.C:
			w.timerDue.Store(true)
		case <-w.stop:
			select {
			case s := <-w.ch:
				w.write(s)
			default:
			}
			return
		}
	}
}

func (w *Writer) write(s *Snapshot) {
	s.OracleHash = w.cfg.OracleHash
	if err := s.WriteFile(w.cfg.Path); err != nil {
		w.errored.Add(1)
		w.cErrors.Inc()
		return
	}
	w.writes.Add(1)
	w.cWrites.Inc()
	var size int64
	if fi, err := os.Stat(w.cfg.Path); err == nil {
		size = fi.Size()
		w.gBytes.Set(size)
	}
	if w.cfg.Events != nil {
		w.cfg.Events.Publish(events.Event{
			Type:  events.TypeCheckpoint,
			Phase: s.Phase,
			Count: w.writes.Load(),
			Fields: map[string]string{
				"bytes": fmt.Sprintf("%d", size),
				"dips":  fmt.Sprintf("%d", dipCount(s.DIPWords)),
			},
		})
	}
}

// dipCount pops the snapshot's DIP words; cheap relative to the file
// write that just happened.
func dipCount(words []uint64) uint64 {
	var n uint64
	for _, w := range words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}
