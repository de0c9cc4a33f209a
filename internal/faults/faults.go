// Package faults provides deterministic, seeded fault injectors for the
// oracle interface: the adversarial test harness behind the repository's
// noisy-oracle resilience work. On real silicon the "activated chip" is
// a scan-chain interface that can return bit-flipped responses or fail
// transiently (the regime of ATPG-guided fault-injection attacks), while
// the paper's attack assumes a perfect oracle. Wrapping an oracle in an
// Injector reproduces that gap on demand:
//
//   - per-output-bit flip noise with configurable probability,
//   - transient typed errors (wrapping oracle.ErrTransient),
//   - injected latency per call.
//
// Determinism: every fault decision is a pure function of (seed, input
// pattern, per-pattern occurrence index). Re-running a workload with the
// same seed reproduces the exact fault pattern bit for bit, regardless
// of how calls interleave across goroutines — distinct input patterns
// draw from independent streams, and the k-th repeat of the same pattern
// always sees the k-th draw of its stream. Repeated queries of one
// pattern therefore see fresh noise each time, which is exactly what
// majority-vote denoising needs.
package faults

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Config parameterizes an Injector.
type Config struct {
	// FlipRate is the independent per-output-bit probability of a flip
	// in a successful response. 0 disables flip noise.
	FlipRate float64
	// TransientRate is the per-call probability that the query fails
	// with a transient error instead of answering. 0 disables.
	// Query64 counts as one call.
	TransientRate float64
	// Latency is added to every call (after the transient decision), to
	// model a slow scan interface. 0 disables.
	Latency time.Duration
	// Seed fixes the fault stream. Equal seeds reproduce equal faults.
	Seed int64
	// Telemetry, when non-nil, mirrors the injector's counters into the
	// registry as faults_calls_total, faults_flips_total and
	// faults_transients_total.
	Telemetry *telemetry.Registry
}

// Injector wraps an Oracle with seeded faults.
type Injector struct {
	inner oracle.Oracle
	cfg   Config

	mu   sync.Mutex
	seen map[uint64]uint64 // pattern hash → occurrences so far

	queries    atomic.Uint64 // calls attempted (including transient failures)
	flips      atomic.Uint64 // output bits flipped
	transients atomic.Uint64 // transient errors injected

	// Registry mirrors of the counters above (nil-safe no-ops when no
	// registry is configured).
	cCalls      *telemetry.Counter
	cFlips      *telemetry.Counter
	cTransients *telemetry.Counter
}

// New wraps inner with the configured fault model.
func New(inner oracle.Oracle, cfg Config) *Injector {
	f := &Injector{inner: inner, cfg: cfg, seen: make(map[uint64]uint64)}
	f.cCalls = cfg.Telemetry.Counter("faults_calls_total")
	f.cFlips = cfg.Telemetry.Counter("faults_flips_total")
	f.cTransients = cfg.Telemetry.Counter("faults_transients_total")
	return f
}

// NumInputs implements oracle.Oracle.
func (f *Injector) NumInputs() int { return f.inner.NumInputs() }

// NumOutputs implements oracle.Oracle.
func (f *Injector) NumOutputs() int { return f.inner.NumOutputs() }

// Flips returns the number of output bits flipped so far.
func (f *Injector) Flips() uint64 { return f.flips.Load() }

// Transients returns the number of transient errors injected so far.
func (f *Injector) Transients() uint64 { return f.transients.Load() }

// Calls returns the number of oracle calls seen (including failed ones).
func (f *Injector) Calls() uint64 { return f.queries.Load() }

// occurrence returns the per-pattern occurrence index for hash h,
// incrementing it. The map is the only shared mutable state; it is tiny
// (one counter per distinct pattern) and guarded by a mutex.
func (f *Injector) occurrence(h uint64) uint64 {
	f.mu.Lock()
	k := f.seen[h]
	f.seen[h] = k + 1
	f.mu.Unlock()
	return k
}

// stream builds the SplitMix64 state for one (pattern, occurrence) cell.
func (f *Injector) stream(h, occ uint64) uint64 {
	s := uint64(f.cfg.Seed) ^ 0x9e3779b97f4a7c15
	s = mix(s ^ h)
	s = mix(s ^ (occ+1)*0xbf58476d1ce4e5b9)
	return s
}

// threshold converts a probability into a uint64 comparison threshold.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * float64(1<<63) * 2)
}

// faultGate handles the shared per-call bookkeeping: latency, transient
// decision, counters. It returns the noise stream state and true when
// the call should proceed.
func (f *Injector) faultGate(h uint64) (uint64, error) {
	f.queries.Add(1)
	f.cCalls.Inc()
	occ := f.occurrence(h)
	state := f.stream(h, occ)
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
	if t := threshold(f.cfg.TransientRate); t != 0 && splitmix(&state) < t {
		f.transients.Add(1)
		f.cTransients.Inc()
		return 0, &transientError{}
	}
	return state, nil
}

// Query implements oracle.Oracle.
func (f *Injector) Query(in []bool) ([]bool, error) {
	state, err := f.faultGate(hashBools(in))
	if err != nil {
		return nil, err
	}
	out, err := f.inner.Query(in)
	if err != nil {
		return nil, err
	}
	if t := threshold(f.cfg.FlipRate); t != 0 {
		for i := range out {
			if splitmix(&state) < t {
				out[i] = !out[i]
				f.flips.Add(1)
				f.cFlips.Inc()
			}
		}
	}
	return out, nil
}

// Query64 implements oracle.Oracle. Flip decisions are drawn per output
// bit per lane, so a 64-pattern batch sees the same per-bit flip rate a
// pattern-at-a-time caller would.
func (f *Injector) Query64(in []uint64) ([]uint64, error) {
	state, err := f.faultGate(hashWords(in))
	if err != nil {
		return nil, err
	}
	out, err := f.inner.Query64(in)
	if err != nil {
		return nil, err
	}
	f.flipWords(out, &state)
	return out, nil
}

func (f *Injector) flipWords(out []uint64, state *uint64) {
	t := threshold(f.cfg.FlipRate)
	if t == 0 {
		return
	}
	for i := range out {
		var mask uint64
		for b := 0; b < 64; b++ {
			if splitmix(state) < t {
				mask |= 1 << uint(b)
			}
		}
		if mask != 0 {
			out[i] ^= mask
			f.flips.Add(uint64(bits.OnesCount64(mask)))
			f.cFlips.Add(uint64(bits.OnesCount64(mask)))
		}
	}
}

// transientError is the typed transient failure the injector raises; it
// unwraps to oracle.ErrTransient so retry layers classify it without
// importing this package.
type transientError struct{}

func (*transientError) Error() string { return "faults: injected transient oracle failure" }

func (*transientError) Unwrap() error { return oracle.ErrTransient }

// ErrTransient re-exports the classification sentinel for convenience:
// errors.Is(err, faults.ErrTransient) and errors.Is(err,
// oracle.ErrTransient) are equivalent.
var ErrTransient = oracle.ErrTransient

// ---- hashing / PRNG --------------------------------------------------

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix(*state)
}

func hashBools(in []bool) uint64 {
	h := uint64(len(in)) * 0x100000001b3
	var w uint64
	for i, b := range in {
		if b {
			w |= 1 << uint(i%64)
		}
		if i%64 == 63 {
			h = mix(h ^ w)
			w = 0
		}
	}
	return mix(h ^ w)
}

func hashWords(in []uint64) uint64 {
	h := uint64(len(in)) * 0xcbf29ce484222325
	for _, w := range in {
		h = mix(h ^ w)
	}
	return h
}
