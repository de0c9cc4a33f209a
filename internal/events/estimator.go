package events

import (
	"sync"
	"time"
)

// Progress is the estimator's digest of an attack's event stream: how
// far along the run is, which phase it is in, and how long it is
// expected to keep going. Fraction is monotone non-decreasing over the
// life of a job; ETA is 0 when unknown (too early to extrapolate).
type Progress struct {
	Fraction float64       `json:"fraction"`
	Phase    string        `json:"phase"`
	ETA      time.Duration `json:"-"`
	ETAMS    int64         `json:"eta_ms"`
}

// phaseSpan maps a phase name to its slice of the overall [0,1)
// progress scale. The widths are priors from the benchmark matrix: DIP
// enumeration dominates, verification is the next heaviest, and the
// bookkeeping phases (decode, algo1) are thin. A hypothesis retry
// re-enters earlier phases; monotonicity is enforced by clamping, so a
// retry holds progress flat rather than walking it backwards.
type phaseSpan struct{ base, width float64 }

var phaseSpans = map[string]phaseSpan{
	"calibrate": {0.00, 0.05},
	"enumerate": {0.05, 0.55},
	"decode":    {0.60, 0.05},
	"algo1":     {0.65, 0.05},
	"algo2":     {0.70, 0.10},
	"verify":    {0.80, 0.20},
}

// Estimator folds a stream of bus events into a Progress snapshot:
// phase boundaries move it along the phase-width prior, and the
// enumerated-DIP-space fraction (dip_progress Done/Total — sim batches
// walked, or DIPs found against the block universe) drives intra-phase
// progress during enumeration. ETA extrapolates the observed rate.
//
// Observe and Snapshot are safe for concurrent use. A nil *Estimator
// ignores Observe and reports a zero Progress.
type Estimator struct {
	mu     sync.Mutex
	phase  string
	frac   float64
	done   bool
	lastTS int64   // ms timestamp of the last fraction advance
	rate   float64 // EWMA of fraction per millisecond
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator { return &Estimator{} }

// Observe folds one event in. Progress events are ignored (they are
// this estimator's own output echoed through the bus).
func (e *Estimator) Observe(ev Event) {
	if e == nil || ev.Type == TypeProgress {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.Type {
	case TypePhaseEnter:
		if _, known := phaseSpans[ev.Phase]; known || e.phase == "" {
			e.phase = ev.Phase
		}
		if sp, ok := phaseSpans[ev.Phase]; ok {
			e.advance(sp.base, ev.TS)
		}
	case TypePhaseExit:
		if sp, ok := phaseSpans[ev.Phase]; ok {
			e.advance(sp.base+sp.width, ev.TS)
		}
	case TypeDIPProgress:
		sp, ok := phaseSpans[e.phase]
		if !ok {
			sp = phaseSpans["enumerate"]
		}
		if ev.Total > 0 {
			intra := float64(ev.Done) / float64(ev.Total)
			if intra > 1 {
				intra = 1
			}
			e.advance(sp.base+sp.width*intra, ev.TS)
		}
	case TypeDone:
		e.done = true
		e.advance(1, ev.TS)
	}
}

// advance moves the monotone fraction toward f and updates the EWMA
// fraction rate using the event-timestamp clock, so replayed histories
// estimate identically to live streams.
func (e *Estimator) advance(f float64, ts int64) {
	if f > 1 {
		f = 1
	}
	if f <= e.frac {
		return
	}
	if e.lastTS > 0 && ts > e.lastTS {
		inst := (f - e.frac) / float64(ts-e.lastTS)
		if e.rate == 0 {
			e.rate = inst
		} else {
			e.rate = 0.7*e.rate + 0.3*inst
		}
	}
	e.frac = f
	if ts > e.lastTS {
		e.lastTS = ts
	}
}

// Snapshot returns the current digest. ETA extrapolates the EWMA
// fraction rate over the remaining fraction.
func (e *Estimator) Snapshot() Progress {
	if e == nil {
		return Progress{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := Progress{Fraction: e.frac, Phase: e.phase}
	if e.done {
		p.Fraction = 1
		return p
	}
	if remaining := 1 - e.frac; remaining > 0 && e.rate > 0 {
		p.ETA = time.Duration(remaining/e.rate) * time.Millisecond
	}
	p.ETAMS = p.ETA.Milliseconds()
	return p
}

// ProgressEvent renders a Progress as a bus event.
func ProgressEvent(p Progress) Event {
	return Event{
		Type:      TypeProgress,
		Phase:     p.Phase,
		Fraction:  p.Fraction,
		ETAMillis: p.ETAMS,
	}
}

// Tracker pumps a bus subscription through an Estimator in the
// background and republishes digests as progress events on a bounded
// cadence, so every consumer of the stream (SSE clients, the NDJSON
// log) sees fraction/ETA without running its own estimator. Close
// detaches; the tracker also winds down by itself when the bus closes.
type Tracker struct {
	bus    *Bus
	sub    *Subscription
	est    *Estimator
	minGap time.Duration
	onProg func(Progress)
	done   chan struct{}
}

// Track attaches a Tracker to bus. minGap bounds how often progress
// events are republished (<=0 selects 250ms); onProgress, when
// non-nil, observes each republished digest (gauge mirroring, CLI
// printing). Track on a nil bus returns nil, and a nil *Tracker is
// safe to query and close.
func Track(bus *Bus, minGap time.Duration, onProgress func(Progress)) *Tracker {
	if bus == nil {
		return nil
	}
	if minGap <= 0 {
		minGap = 250 * time.Millisecond
	}
	t := &Tracker{
		bus:    bus,
		sub:    bus.Subscribe(0),
		est:    NewEstimator(),
		minGap: minGap,
		onProg: onProgress,
		done:   make(chan struct{}),
	}
	go t.run()
	return t
}

// Snapshot returns the estimator's current digest.
func (t *Tracker) Snapshot() Progress {
	if t == nil {
		return Progress{}
	}
	return t.est.Snapshot()
}

// Close detaches the tracker and waits for its goroutine to exit.
func (t *Tracker) Close() {
	if t == nil {
		return
	}
	t.sub.Close()
	<-t.done
}

func (t *Tracker) run() {
	defer close(t.done)
	var lastPub time.Time
	var last Progress
	for {
		events := t.sub.Poll()
		for _, ev := range events {
			t.est.Observe(ev)
		}
		if len(events) > 0 {
			p := t.est.Snapshot()
			final := p.Fraction >= 1
			advanced := p.Fraction > last.Fraction || p.Phase != last.Phase
			if advanced && (final || time.Since(lastPub) >= t.minGap) {
				t.bus.Publish(ProgressEvent(p))
				if t.onProg != nil {
					t.onProg(p)
				}
				last, lastPub = p, time.Now()
			}
			continue
		}
		if t.sub.Closed() {
			return
		}
		<-t.sub.Wait()
	}
}
