package oracle

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ResilientOptions configures the Resilient decorator.
type ResilientOptions struct {
	// Retries is how many times one sub-query is retried after a
	// transient failure before giving up (default 4; < 0 disables).
	Retries int
	// Votes is the number of repeated queries whose per-bit majority
	// becomes the answer (default 1 = no voting). Even values are
	// rounded up to the next odd so every bit has a strict majority.
	Votes int
	// BaseBackoff is the first retry's backoff (default 1ms). Each
	// further retry doubles it, capped at MaxBackoff (default 100ms),
	// with ±50% jitter so synchronized retriers spread out.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the jitter (reproducible schedules in tests).
	Seed int64
	// Sleep replaces time.Sleep (tests inject a no-op to keep the
	// retry path fast); nil means time.Sleep.
	Sleep func(time.Duration)
	// Telemetry, when non-nil, mirrors the Stats counters into the
	// registry as oracle_queries_total, oracle_subqueries_total,
	// oracle_retries_total and oracle_votes_overruled_total.
	Telemetry *telemetry.Registry
}

// ResilientStats is a snapshot of the decorator's work counters.
type ResilientStats struct {
	// Queries is the number of logical queries answered.
	Queries uint64
	// SubQueries is the number of inner-oracle calls issued (votes and
	// retries included).
	SubQueries uint64
	// Retries counts transient failures that were retried.
	Retries uint64
	// VotesOverruled counts output words where at least one vote
	// disagreed with the majority — i.e. denoised flips caught in the
	// act.
	VotesOverruled uint64
}

// Resilient wraps an Oracle with retry-on-transient (exponential
// backoff + jitter) and k-of-n majority voting, turning a noisy or
// flaky oracle back into a dependable one. Errors that are not
// transient — and transient errors that outlive the retry budget — are
// returned as *PermanentError.
//
// It is safe for concurrent use whenever the inner oracle is.
type Resilient struct {
	inner Oracle
	opts  ResilientOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	queries    atomic.Uint64
	subQueries atomic.Uint64
	retries    atomic.Uint64
	overruled  atomic.Uint64

	// Registry mirrors of the counters above (nil-safe no-ops when no
	// registry is configured).
	cQueries    *telemetry.Counter
	cSubQueries *telemetry.Counter
	cRetries    *telemetry.Counter
	cOverruled  *telemetry.Counter
}

// NewResilient wraps inner with the given policy.
func NewResilient(inner Oracle, opts ResilientOptions) *Resilient {
	if opts.Retries == 0 {
		opts.Retries = 4
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Votes < 1 {
		opts.Votes = 1
	}
	if opts.Votes%2 == 0 {
		opts.Votes++
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 100 * time.Millisecond
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	r := &Resilient{inner: inner, opts: opts, rng: rand.New(rand.NewSource(opts.Seed ^ 0x0a11ce))}
	r.cQueries = opts.Telemetry.Counter("oracle_queries_total")
	r.cSubQueries = opts.Telemetry.Counter("oracle_subqueries_total")
	r.cRetries = opts.Telemetry.Counter("oracle_retries_total")
	r.cOverruled = opts.Telemetry.Counter("oracle_votes_overruled_total")
	return r
}

// NumInputs implements Oracle.
func (r *Resilient) NumInputs() int { return r.inner.NumInputs() }

// NumOutputs implements Oracle.
func (r *Resilient) NumOutputs() int { return r.inner.NumOutputs() }

// Stats returns a snapshot of the work counters.
func (r *Resilient) Stats() ResilientStats {
	return ResilientStats{
		Queries:        r.queries.Load(),
		SubQueries:     r.subQueries.Load(),
		Retries:        r.retries.Load(),
		VotesOverruled: r.overruled.Load(),
	}
}

// backoff computes the jittered exponential backoff for attempt k ≥ 1.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.opts.BaseBackoff << uint(attempt-1)
	if d > r.opts.MaxBackoff || d <= 0 {
		d = r.opts.MaxBackoff
	}
	r.rngMu.Lock()
	jitter := 0.5 + r.rng.Float64() // ×[0.5, 1.5)
	r.rngMu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// withRetry runs one sub-query, retrying transient failures with
// backoff. Non-transient errors and exhausted budgets become
// *PermanentError.
func (r *Resilient) withRetry(q func() error) error {
	attempts := 0
	for {
		attempts++
		r.subQueries.Add(1)
		r.cSubQueries.Inc()
		err := q()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrTransient) || attempts > r.opts.Retries {
			return &PermanentError{Attempts: attempts, Err: err}
		}
		r.retries.Add(1)
		r.cRetries.Inc()
		r.opts.Sleep(r.backoff(attempts))
	}
}

// Query implements Oracle: Votes repeated queries, per-bit majority.
func (r *Resilient) Query(in []bool) ([]bool, error) {
	r.queries.Add(1)
	r.cQueries.Inc()
	votes := r.opts.Votes
	counts := make([]int, r.inner.NumOutputs())
	var out []bool
	for v := 0; v < votes; v++ {
		err := r.withRetry(func() error {
			var e error
			out, e = r.inner.Query(in)
			return e
		})
		if err != nil {
			return nil, err
		}
		if votes == 1 {
			return out, nil
		}
		for i, b := range out {
			if b {
				counts[i]++
			}
		}
	}
	res := make([]bool, len(counts))
	overruled := false
	for i, c := range counts {
		res[i] = 2*c > votes
		if c != 0 && c != votes {
			overruled = true
		}
	}
	if overruled {
		r.overruled.Add(1)
		r.cOverruled.Inc()
	}
	return res, nil
}

// Query64 implements Oracle: per-bit majority across Votes repeats of
// the whole 64-pattern batch.
func (r *Resilient) Query64(in []uint64) ([]uint64, error) {
	r.queries.Add(1)
	r.cQueries.Inc()
	return r.query64Voted(in)
}

func (r *Resilient) query64Voted(in []uint64) ([]uint64, error) {
	votes := r.opts.Votes
	var samples [][]uint64
	var out []uint64
	for v := 0; v < votes; v++ {
		err := r.withRetry(func() error {
			var e error
			out, e = r.inner.Query64(in)
			return e
		})
		if err != nil {
			return nil, err
		}
		if votes == 1 {
			return out, nil
		}
		samples = append(samples, out)
	}
	return r.majority64(samples), nil
}

// majority64 folds vote samples into their per-bit majority. Votes is
// small (typically 3–7), so the per-bit tally is cheap; the fast path
// skips whole words on which every vote agreed.
func (r *Resilient) majority64(samples [][]uint64) []uint64 {
	votes := len(samples)
	words := len(samples[0])
	res := make([]uint64, words)
	need := votes/2 + 1
	for w := 0; w < words; w++ {
		first := samples[0][w]
		var disagree uint64
		for _, s := range samples[1:] {
			disagree |= s[w] ^ first
		}
		if disagree == 0 {
			res[w] = first
			continue
		}
		r.overruled.Add(1)
		r.cOverruled.Inc()
		m := first &^ disagree // unanimous bits pass through
		for b := 0; b < 64; b++ {
			if disagree&(1<<uint(b)) == 0 {
				continue
			}
			c := 0
			for _, s := range samples {
				c += int((s[w] >> uint(b)) & 1)
			}
			if c >= need {
				m |= 1 << uint(b)
			} else {
				m &^= 1 << uint(b)
			}
		}
		res[w] = m
	}
	return res
}
