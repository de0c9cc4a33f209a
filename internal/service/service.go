// Package service is the attack-as-a-service layer: a long-running
// front end over internal/core that accepts locked-netlist attack jobs,
// runs them on a bounded worker pool with admission control, and
// amortizes work across requests through a content-addressed result
// cache with singleflight deduplication — N identical submissions run
// the attack once, and a byte-identical resubmission of a completed job
// costs zero oracle or SAT queries.
//
// The boundary is hardened for shared use: requests are validated
// before admission (block width against core.MaxBlockWidth, oracle
// arity against the locked netlist), worker panics are recovered into
// typed JobErrors instead of taking the daemon down, and every job runs
// under its own telemetry registry whose span tree is served back over
// the job API. DESIGN.md §8 documents the cache key derivation, the
// singleflight semantics and the job state machine.
package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent attack executions (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started
	// executions; a full queue rejects submissions with KindQueueFull
	// (default 16).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache, in completed
	// jobs (default 128).
	CacheSize int
	// MaxBlockWidth caps the admitted CAS block width. 0 defaults to
	// core.MaxBlockWidth; values above it are clamped to it.
	MaxBlockWidth int
	// MaxTimeout caps (and DefaultTimeout fills in) the per-job attack
	// deadline. Zero means no cap / no default.
	MaxTimeout, DefaultTimeout time.Duration
	// Registry receives service-level metrics and per-job lifecycle
	// spans; nil disables them. Per-job attack span trees always exist —
	// they live in the job's own registry regardless.
	Registry *telemetry.Registry
	// Log, when non-nil, receives operational messages.
	Log func(format string, args ...any)
	// JournalDir, when non-empty, arms crash durability: every job
	// transition is appended to a WAL in this directory, executions
	// checkpoint their attack progress into a content-addressed blob
	// store beside it, and New replays the journal on boot — terminal
	// jobs are reconstructed from their sealed outcomes and unfinished
	// ones re-admitted, resuming from their latest checkpoint. Empty
	// disables durability (the pre-journal in-memory behavior).
	JournalDir string
}

// AttackRequest is one job submission. Locked and Oracle are
// bench-format netlist texts (the oracle is the activated/original
// circuit; it is simulated server-side).
type AttackRequest struct {
	Locked string `json:"locked"`
	Oracle string `json:"oracle"`
	// Attack names the attack to mount, resolved against the attack
	// registry (internal/attack). Empty means "dip". Only attacks the
	// registry marks Servable are admitted — currently the DIP-learning
	// pipeline, the one attack with checkpoint/resume and event-stream
	// support; the rest are rejected at validation with the servable
	// universe in the error.
	Attack string `json:"attack,omitempty"`
	// MCAS routes the job through the Mirrored-CAS pipeline (SPS strip,
	// then the DIP-learning attack).
	MCAS bool `json:"mcas,omitempty"`
	// Seed drives the attack's probe sampling (part of the cache key).
	Seed int64 `json:"seed,omitempty"`
	// SATWidthLimit pins the SAT/simulation extractor boundary; 0 runs
	// the simulation extractor unless it refuses the instance (see
	// core.Options.SATWidthLimit).
	SATWidthLimit int `json:"sat_width_limit,omitempty"`
	// TimeoutMS bounds the attack; expiry yields a partial outcome.
	// Not part of the cache key (a budget, not a problem statement).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers overrides the enumeration shard count (0 = all cores).
	// Not part of the cache key (results are bit-identical regardless).
	Workers int `json:"workers,omitempty"`
}

// JobState is the job lifecycle state exposed by the API.
type JobState string

const (
	StateQueued     JobState = "queued"
	StateRunning    JobState = "running"
	StateCancelling JobState = "cancelling"
	StateDone       JobState = "done"
	StatePartial    JobState = "partial"
	StateFailed     JobState = "failed"
	StateCanceled   JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateFailed, StateCanceled:
		return true
	}
	return false
}

// JobResult is a successful recovery, JSON-shaped for the API.
type JobResult struct {
	Key             string  `json:"key"`
	Chain           string  `json:"chain"`
	Case            int     `json:"case"`
	KeyGates1       string  `json:"key_gates_1"`
	KeyGates2       string  `json:"key_gates_2"`
	AlignedDIPs     uint64  `json:"aligned_dips"`
	TotalDIPs       uint64  `json:"total_dips"`
	OracleQueries   uint64  `json:"oracle_queries"`
	Extractions     int     `json:"extractions"`
	Calibrations    int     `json:"calibrations"`
	CandidatesTried int     `json:"candidates_tried"`
	MCAS            bool    `json:"mcas,omitempty"`
	RemovedFlipProb float64 `json:"removed_flip_prob,omitempty"`
	ElapsedMS       int64   `json:"elapsed_ms"`
}

// PartialInfo is the structure recovered before an interruption.
type PartialInfo struct {
	Stage       string `json:"stage"`
	Case        int    `json:"case"`
	Chain       string `json:"chain,omitempty"`
	KeyGates    string `json:"key_gates,omitempty"`
	DIPs        uint64 `json:"dips"`
	Extractions int    `json:"extractions"`
	Cause       string `json:"cause"`
}

// outcome is one execution's immutable final record, shared by every
// job that deduplicated onto it (and by cache hits afterwards).
type outcome struct {
	result  *JobResult
	partial *PartialInfo
	jobErr  *JobError
	trace   []byte         // Chrome-trace JSON of the job's span tree
	events  []events.Event // sealed lifecycle event history, ending in done
}

func (o *outcome) state() JobState {
	switch {
	case o.result != nil:
		return StateDone
	case o.partial != nil:
		return StatePartial
	case o.jobErr != nil && o.jobErr.Kind == KindCanceled:
		return StateCanceled
	default:
		return StateFailed
	}
}

// parsedRequest is an admission-validated request. lockedHash and
// oracleHash are the netlists' bench.Hash digests, taken once at
// admission.
type parsedRequest struct {
	req        AttackRequest
	locked     *netlist.Circuit
	orig       *netlist.Circuit
	lockedHash string
	oracleHash string
	width      int
}

// execution is one in-flight attack shared by all jobs with its hash.
type execution struct {
	hash   string
	parsed *parsedRequest
	flight *cache.Flight[*outcome]
	ctx    context.Context
	cancel context.CancelFunc
	tel    *telemetry.Registry // per-job registry (attack span tree)
	bus    *events.Bus         // per-execution lifecycle event stream (SSE source)
	track  *events.Tracker     // progress/ETA estimator feeding the bus

	mu         sync.Mutex
	running    bool
	startedAt  time.Time
	finishedAt time.Time
}

func (e *execution) phase() JobState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return StateRunning
	}
	return StateQueued
}

// Job is one submission's handle. Jobs sharing a content hash share an
// execution; each job still has its own ID, timestamps and cancel
// state.
type Job struct {
	id          string
	hash        string
	submittedAt time.Time
	cached      bool       // admitted as a cache hit
	exec        *execution // nil on the cached fast path
	done        *outcome   // set immediately on the cached fast path

	cancelOnce sync.Once
	cancelled  atomic.Bool
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Hash returns the job's content-address (the cache key digest).
func (j *Job) Hash() string { return j.hash }

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID              string       `json:"id"`
	Hash            string       `json:"hash"`
	State           JobState     `json:"state"`
	Cached          bool         `json:"cached"`
	CancelRequested bool         `json:"cancel_requested,omitempty"`
	SubmittedAt     time.Time    `json:"submitted_at"`
	StartedAt       *time.Time   `json:"started_at,omitempty"`
	FinishedAt      *time.Time   `json:"finished_at,omitempty"`
	Error           string       `json:"error,omitempty"`
	ErrorKind       ErrorKind    `json:"error_kind,omitempty"`
	Partial         *PartialInfo `json:"partial,omitempty"`
	// Progress is the estimator's live digest while the job runs
	// (fraction, phase, ETA); a successfully finished job reports
	// fraction 1.
	Progress *events.Progress `json:"progress,omitempty"`
}

// Service is the attack-as-a-service front end. Construct with New,
// stop with Close.
type Service struct {
	cfg   Config
	tel   *telemetry.Registry
	store *cache.LRU[string, *outcome]
	group *cache.Group[*outcome]
	queue chan *execution

	mu     sync.Mutex
	jobs   map[string]*Job
	active map[string]*execution // hash → in-flight execution
	closed bool

	nextID atomic.Uint64
	wg     sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	// sseHeartbeat overrides the idle keep-alive cadence on event
	// streams (0 = defaultSSEHeartbeat); tests shorten it.
	sseHeartbeat time.Duration

	// beforeRun, when non-nil, runs on the worker goroutine just before
	// the attack starts — a test seam for deterministic cancellation and
	// fault injection. A panic inside it exercises the worker's
	// panic-to-JobError boundary.
	beforeRun func(ctx context.Context, hash string) error

	journal *journal

	cSubmitted      *telemetry.Counter
	cCacheHits      *telemetry.Counter
	cDeduped        *telemetry.Counter
	cAttackRuns     *telemetry.Counter
	cQueries        *telemetry.Counter
	cPanics         *telemetry.Counter
	cJournalRecords *telemetry.Counter
	gRunning        *telemetry.Gauge
	gQueued         *telemetry.Gauge
}

// New starts a service with cfg's worker pool. With Config.JournalDir
// set it first replays the job journal found there; a corrupt journal
// fails the boot with an error wrapping ErrJournalCorrupt rather than
// silently dropping jobs.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.MaxBlockWidth <= 0 || cfg.MaxBlockWidth > core.MaxBlockWidth {
		cfg.MaxBlockWidth = core.MaxBlockWidth
	}
	var (
		jnl  *journal
		recs []record
	)
	if cfg.JournalDir != "" {
		var err error
		jnl, recs, err = openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
	}
	replayJobs, doneHashes := buildReplay(recs)
	// The queue must hold every re-admitted job before the workers start,
	// so replay can never deadlock on a full channel.
	pending := 0
	for _, rj := range replayJobs {
		if _, done := doneHashes[rj.hash]; !done && !rj.canceled {
			pending++
		}
	}
	queueCap := cfg.QueueDepth
	if pending > queueCap {
		queueCap = pending
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		tel:       cfg.Registry,
		store:     cache.NewLRU[string, *outcome](cfg.CacheSize),
		group:     cache.NewGroup[*outcome](),
		queue:     make(chan *execution, queueCap),
		jobs:      make(map[string]*Job),
		active:    make(map[string]*execution),
		baseCtx:   ctx,
		cancelAll: cancel,
		journal:   jnl,
	}
	s.cSubmitted = s.tel.Counter("service_jobs_submitted_total")
	s.cCacheHits = s.tel.Counter("service_cache_hits_total")
	s.cDeduped = s.tel.Counter("service_singleflight_joins_total")
	s.cAttackRuns = s.tel.Counter("service_attack_runs_total")
	s.cQueries = s.tel.Counter("service_oracle_queries_total")
	s.cPanics = s.tel.Counter("service_worker_panics_total")
	s.cJournalRecords = s.tel.Counter("journal_records_total")
	s.gRunning = s.tel.Gauge("service_jobs_running")
	s.gQueued = s.tel.Gauge("service_queue_depth")
	if jnl != nil {
		s.replay(replayJobs, doneHashes)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay rebuilds the job ledger from the journal before the workers
// start: no locks needed, nothing else is running yet. Jobs keep their
// original IDs; re-admission writes no new journal records, so replay
// is idempotent across repeated crashes.
func (s *Service) replay(jobs []*replayJob, doneHashes map[string]string) {
	var maxID uint64
	for _, rj := range jobs {
		if n := idSuffix(rj.id); n > maxID {
			maxID = n
		}
		job := &Job{id: rj.id, hash: rj.hash, submittedAt: time.Now()}
		state := "pending"
		switch {
		case rj.canceled:
			job.cancelled.Store(true)
			job.done = &outcome{jobErr: &JobError{Kind: KindCanceled, Err: errors.New("job canceled before restart")}}
			state = "canceled"
		case doneHashes[rj.hash] == string(StateCanceled):
			job.done = &outcome{jobErr: &JobError{Kind: KindCanceled, Err: errors.New("execution canceled before restart")}}
			state = "done"
		case doneHashes[rj.hash] != "":
			if out, err := s.journal.loadOutcome(rj.hash); err == nil {
				job.done = out
				job.cached = true
				if out.result != nil {
					s.store.Put(rj.hash, out)
				}
				state = "done"
			} else {
				// The done record landed but its blob did not survive:
				// re-run rather than lose the job.
				s.logf("replay: outcome blob for %s unreadable (%v), re-running", shortHash(rj.hash), err)
				s.readmit(job, rj)
			}
		default:
			s.readmit(job, rj)
		}
		s.jobs[job.id] = job
		s.tel.Counter(telemetry.Label("journal_replayed_total", "state", state)).Inc()
		s.logf("replay: job %s (%s) restored as %s", rj.id, shortHash(rj.hash), state)
	}
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
	}
}

// readmit re-validates a journaled request and queues its execution,
// deduplicating multiple replayed jobs with the same hash onto one
// flight exactly like live submissions. Like live submissions it
// rejects unknown fields, so a request journaled with an option this
// build no longer has fails typed instead of silently running without
// it.
func (s *Service) readmit(job *Job, rj *replayJob) {
	var req AttackRequest
	parsed, err := func() (*parsedRequest, error) {
		dec := json.NewDecoder(bytes.NewReader(rj.reqJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		return s.validate(req)
	}()
	if err != nil {
		job.done = &outcome{jobErr: &JobError{Kind: KindAttackFailed,
			Err: fmt.Errorf("journaled request no longer admissible: %w", err)}}
		return
	}
	flight, leader := s.group.Join(rj.hash)
	if leader {
		exec := s.newExecution(rj.hash, parsed, flight)
		s.queue <- exec // capacity sized to hold every pending replay
		s.active[rj.hash] = exec
	}
	job.exec = s.active[rj.hash]
}

func idSuffix(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "j-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Close stops admission, cancels every queued and running execution and
// waits for the workers to drain. Safe to call twice.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.cancelAll()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.close()
	}
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// hashRequest derives the content address: SHA-256 over both
// netlists' digests plus the attack-semantics options.
// Budget/parallelism knobs (TimeoutMS, Workers) are deliberately
// excluded — they change how long the computation may take, not what it
// computes.
func hashRequest(p *parsedRequest) string {
	opts := fmt.Sprintf("v8 attack=%s mcas=%t seed=%d satwidth=%d",
		p.req.Attack, p.req.MCAS, p.req.Seed, p.req.SATWidthLimit)
	return cache.SumParts([]byte(p.lockedHash), []byte(p.oracleHash), []byte(opts))
}

// servableUniverse renders the attacks the service admits as jobs.
func servableUniverse() string {
	var names []string
	for _, a := range attack.Attacks() {
		if a.Servable {
			names = append(names, a.Name)
		}
	}
	return strings.Join(names, ", ")
}

// validate is the admission boundary: it parses both netlists, checks
// the oracle's arity against the locked circuit, and validates the
// block width BEFORE the job is queued — out-of-universe widths are
// rejected here with a typed error instead of being discovered as a
// panic deep inside a worker.
func (s *Service) validate(req AttackRequest) (*parsedRequest, error) {
	if strings.TrimSpace(req.Locked) == "" || strings.TrimSpace(req.Oracle) == "" {
		return nil, errInvalid("locked and oracle netlists are required")
	}
	if req.SATWidthLimit < 0 || req.Workers < 0 || req.TimeoutMS < 0 {
		return nil, errInvalid("negative option values")
	}
	attackName := req.Attack
	if attackName == "" {
		attackName = "dip"
	}
	atk, ok := attack.AttackByName(attackName)
	if !ok {
		return nil, errInvalid("unknown attack %q (have: %s)", req.Attack, attack.Universe())
	}
	if !atk.Servable {
		return nil, errInvalid("attack %q is not servable as a job (servable: %s)", atk.Name, servableUniverse())
	}
	locked, err := bench.ReadString("locked", req.Locked)
	if err != nil {
		return nil, errInvalid("locked netlist: %v", err)
	}
	orig, err := bench.ReadString("oracle", req.Oracle)
	if err != nil {
		return nil, errInvalid("oracle netlist: %v", err)
	}
	if orig.NumKeys() != 0 {
		return nil, errInvalid("oracle netlist has %d key inputs, want 0 (submit the activated/original circuit)", orig.NumKeys())
	}
	if orig.NumInputs() != locked.NumInputs() || orig.NumOutputs() != locked.NumOutputs() {
		return nil, errInvalid("oracle arity %d→%d does not match locked %d→%d",
			orig.NumInputs(), orig.NumOutputs(), locked.NumInputs(), locked.NumOutputs())
	}
	if locked.NumKeys() == 0 {
		return nil, errInvalid("locked netlist has no key inputs")
	}
	// Normalize the attack name so equivalent spellings ("", "dip",
	// "DIP-learning") content-address identically.
	req.Attack = atk.Name
	p := &parsedRequest{req: req, locked: locked, orig: orig}
	if req.MCAS {
		// The M-CAS pipeline discovers the inner layout only after the
		// SPS strip; bound the width by what the key count implies.
		p.width = locked.NumKeys() / 4
		if locked.NumKeys()%4 != 0 || p.width < 1 {
			return nil, errInvalid("M-CAS key count %d is not 4×block width", locked.NumKeys())
		}
	} else {
		layout, err := core.DiscoverLayout(locked)
		if err != nil {
			return nil, errInvalid("locked netlist is not a recognizable CAS instance: %v", err)
		}
		p.width = layout.N()
		if layout.N()*2 != locked.NumKeys() {
			return nil, errInvalid("layout covers %d key bits, circuit has %d", layout.N()*2, locked.NumKeys())
		}
	}
	if p.width < 1 || p.width > s.cfg.MaxBlockWidth {
		return nil, &JobError{Kind: KindInvalid, Err: fmt.Errorf("%w: block width %d outside [1, %d]",
			core.ErrBlockWidth, p.width, s.cfg.MaxBlockWidth)}
	}
	if p.lockedHash, err = bench.Hash(locked); err != nil {
		return nil, errInvalid("hashing locked netlist: %v", err)
	}
	if p.oracleHash, err = bench.Hash(orig); err != nil {
		return nil, errInvalid("hashing oracle netlist: %v", err)
	}
	return p, nil
}

// Submit validates and admits one job. Identical in-flight submissions
// deduplicate onto one execution; identical completed submissions are
// answered from the cache without running anything. A full queue is a
// typed KindQueueFull rejection (HTTP 429 at the API layer).
func (s *Service) Submit(req AttackRequest) (*Job, error) {
	parsed, err := s.validate(req)
	if err != nil {
		s.tel.Counter(telemetry.Label("service_jobs_rejected_total", "reason", "invalid")).Inc()
		return nil, err
	}
	hash := hashRequest(parsed)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &JobError{Kind: KindUnavailable, Err: errors.New("service is shutting down")}
	}
	job := &Job{
		id:          fmt.Sprintf("j-%06d", s.nextID.Add(1)),
		hash:        hash,
		submittedAt: time.Now(),
	}
	if out, ok := s.store.Get(hash); ok {
		job.cached = true
		job.done = out
		s.jobs[job.id] = job
		s.cSubmitted.Inc()
		s.cCacheHits.Inc()
		s.journalSubmit(job, req)
		s.logf("job %s: cache hit for %s", job.id, shortHash(hash))
		return job, nil
	}
	flight, leader := s.group.Join(hash)
	if leader {
		exec := s.newExecution(hash, parsed, flight)
		select {
		case s.queue <- exec:
			s.active[hash] = exec
			s.gQueued.Set(int64(len(s.queue)))
		default:
			// Undo the join: finish the flight with the rejection so the
			// group entry is removed (no follower can exist yet — Submit
			// runs under s.mu).
			exec.cancel()
			rejection := &outcome{jobErr: &JobError{Kind: KindQueueFull, Err: errors.New("admission queue full")}}
			flight.Finish(rejection, nil)
			s.tel.Counter(telemetry.Label("service_jobs_rejected_total", "reason", "queue_full")).Inc()
			return nil, rejection.jobErr
		}
	} else {
		s.cDeduped.Inc()
	}
	job.exec = s.active[hash]
	if job.exec == nil {
		// The flight predates our lock but its execution already left the
		// active map: it is finishing concurrently; treat it like a join
		// on a completed flight (snapshot will read the outcome).
		job.exec = &execution{hash: hash, flight: flight, tel: telemetry.New()}
	}
	s.jobs[job.id] = job
	s.cSubmitted.Inc()
	s.journalSubmit(job, req)
	return job, nil
}

// newExecution builds a leader execution with the service's deadline
// policy applied.
func (s *Service) newExecution(hash string, parsed *parsedRequest, flight *cache.Flight[*outcome]) *execution {
	ctx, cancel := context.WithCancel(s.baseCtx)
	timeout := time.Duration(parsed.req.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	exec := &execution{
		hash:   hash,
		parsed: parsed,
		flight: flight,
		ctx:    ctx,
		cancel: cancel,
		tel:    telemetry.New(),
	}
	// Every execution carries its own event bus: the attack publishes
	// lifecycle events into it, the tracker distills them into progress
	// digests (republished on the same bus for SSE readers), and the
	// progress gauge mirror feeds the dashboard's per-job bars.
	exec.bus = events.New(events.Options{Telemetry: s.tel})
	short := shortHash(hash)
	gProgress := s.tel.Gauge(telemetry.Label("service_job_progress", "job", short))
	exec.track = events.Track(exec.bus, progressRepublishGap, func(p events.Progress) {
		gProgress.Set(int64(p.Fraction * 10000)) // basis points
	})
	flight.SetCancel(cancel)
	return exec
}

// progressRepublishGap throttles the tracker's progress events; SSE
// clients see at most a few digests per second per job.
const progressRepublishGap = 250 * time.Millisecond

// sealEvents ends an execution's event stream: the tracker is drained,
// a terminal done event carrying the job state is published, and the
// closed bus's full history is copied into the outcome so cache hits
// and restarts can replay the stream to late subscribers. Closing the
// tracker before publishing done keeps done the stream's last event.
func (s *Service) sealEvents(exec *execution, out *outcome) {
	if exec.bus == nil {
		return
	}
	exec.track.Close()
	exec.bus.Publish(events.Event{
		Type:     events.TypeDone,
		Fraction: 1,
		Fields:   map[string]string{"state": string(out.state())},
	})
	exec.bus.Close()
	out.events = exec.bus.History(0)
	s.tel.Gauge(telemetry.Label("service_job_progress", "job", shortHash(exec.hash))).Set(10000)
}

// journalAppend records one WAL entry, counting failures instead of
// failing the caller: durability degrades, admission does not.
func (s *Service) journalAppend(typ byte, fields ...[]byte) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(typ, fields...); err != nil {
		s.tel.Counter("journal_append_errors_total").Inc()
		s.logf("journal append failed: %v", err)
		return
	}
	s.cJournalRecords.Inc()
}

// journalSubmit appends a job's admission record (including cache hits
// and singleflight followers — each job must survive a restart under
// its own ID).
func (s *Service) journalSubmit(job *Job, req AttackRequest) {
	if s.journal == nil {
		return
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		s.logf("journal: marshaling request for %s: %v", job.id, err)
		return
	}
	s.journalAppend(recSubmit, []byte(job.id), []byte(job.hash), reqJSON)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// Get returns a job's status snapshot.
func (s *Service) Get(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.snapshot(), nil
}

// Outcome returns a job's terminal outcome, or an error when the job is
// unknown or still in progress (the boolean distinguishes: false means
// not finished yet).
func (s *Service) Outcome(id string) (*JobStatus, *JobResult, bool, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, nil, false, err
	}
	st := j.snapshot()
	out := j.outcome()
	if out == nil {
		return &st, nil, false, nil
	}
	return &st, out.result, true, nil
}

// Trace returns the Chrome-trace JSON of a job's span tree. For a job
// still in progress it snapshots the spans ended so far.
func (s *Service) Trace(id string) ([]byte, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if out := j.outcome(); out != nil && out.trace != nil {
		return out.trace, nil
	}
	if j.exec == nil || j.exec.tel == nil {
		return []byte("[]"), nil
	}
	var buf bytes.Buffer
	if err := j.exec.tel.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Cancel withdraws one job's interest in its execution. The execution
// itself is only aborted when its last interested job cancels — that is
// the refcounted singleflight contract — after which the in-flight
// attack winds down into a partial outcome.
func (s *Service) Cancel(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	if j.exec != nil && j.outcome() == nil {
		j.cancelOnce.Do(func() {
			j.cancelled.Store(true)
			s.journalAppend(recCancel, []byte(j.id))
			j.exec.flight.Leave()
		})
	}
	return j.snapshot(), nil
}

// List returns a snapshot of every known job, newest first.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	// Newest first: ID suffixes are monotonic in submission order. They
	// compare as numbers, since the zero padding stops at six digits.
	slices.SortFunc(out, func(a, b JobStatus) int {
		return cmp.Compare(idSuffix(b.ID), idSuffix(a.ID))
	})
	return out
}

func (s *Service) lookup(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, &JobError{Kind: KindNotFound, Err: fmt.Errorf("unknown job %q", id)}
	}
	return j, nil
}

// outcome returns the job's terminal outcome, nil while in progress.
func (j *Job) outcome() *outcome {
	if j.done != nil {
		return j.done
	}
	if j.exec == nil {
		return nil
	}
	select {
	case <-j.exec.flight.Done:
		out, _ := j.exec.flight.Result()
		return out
	default:
		return nil
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (j *Job) Wait(ctx context.Context) (*JobStatus, error) {
	if j.done == nil && j.exec != nil {
		select {
		case <-j.exec.flight.Done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	st := j.snapshot()
	return &st, nil
}

func (j *Job) snapshot() JobStatus {
	st := JobStatus{
		ID:              j.id,
		Hash:            j.hash,
		Cached:          j.cached,
		CancelRequested: j.cancelled.Load(),
		SubmittedAt:     j.submittedAt,
	}
	out := j.outcome()
	if out == nil {
		st.State = j.exec.phase()
		if st.CancelRequested {
			st.State = StateCancelling
		}
		if st.State == StateRunning {
			j.exec.mu.Lock()
			t := j.exec.startedAt
			j.exec.mu.Unlock()
			st.StartedAt = &t
			if j.exec.track != nil {
				p := j.exec.track.Snapshot()
				st.Progress = &p
			}
		}
		return st
	}
	st.State = out.state()
	if st.State == StateDone {
		st.Progress = &events.Progress{Fraction: 1, Phase: "done"}
	}
	st.Partial = out.partial
	if out.jobErr != nil {
		st.Error = out.jobErr.Error()
		st.ErrorKind = out.jobErr.Kind
	}
	if out.partial != nil {
		st.Error = out.partial.Cause
	}
	if j.exec != nil {
		j.exec.mu.Lock()
		if !j.exec.startedAt.IsZero() {
			t := j.exec.startedAt
			st.StartedAt = &t
		}
		if !j.exec.finishedAt.IsZero() {
			t := j.exec.finishedAt
			st.FinishedAt = &t
		}
		j.exec.mu.Unlock()
	}
	return st
}

// maxPanicAttempts bounds the journal-armed panic retry loop: the
// first run plus this many retries from the last checkpoint.
const maxPanicAttempts = 3

// worker drains the execution queue.
func (s *Service) worker() {
	defer s.wg.Done()
	for exec := range s.queue {
		s.gQueued.Set(int64(len(s.queue)))
		s.journalAppend(recStart, []byte(exec.hash))
		out := s.runProtected(exec)
		// A snapshot the attack refuses (format or option drift across
		// releases) must not wedge the job: drop it and run fresh once.
		if s.journal != nil && out.jobErr != nil && errors.Is(out.jobErr.Err, core.ErrResumeMismatch) {
			s.journal.removeCheckpoint(exec.hash)
			s.logf("job %s: stale checkpoint refused, restarting fresh", shortHash(exec.hash))
			out = s.runProtected(exec)
		}
		// With durability armed a panicking attack retries from its last
		// checkpoint with backoff instead of failing outright.
		for attempt := 1; s.journal != nil && attempt < maxPanicAttempts &&
			out.jobErr != nil && out.jobErr.Kind == KindPanic && exec.ctx.Err() == nil; attempt++ {
			s.tel.Counter("service_panic_retries_total").Inc()
			s.logf("job %s: panicked, retrying from last checkpoint (attempt %d/%d)",
				shortHash(exec.hash), attempt+1, maxPanicAttempts)
			select {
			case <-time.After(time.Duration(1<<uint(attempt-1)) * 100 * time.Millisecond):
			case <-exec.ctx.Done():
			}
			out = s.runProtected(exec)
		}
		// Seal the event stream before the outcome becomes visible
		// anywhere: the cache, the journal blob and the flight all carry
		// the finished history.
		s.sealEvents(exec, out)
		if out.result != nil {
			s.store.Put(exec.hash, out)
		}
		s.sealDurable(exec, out)
		s.mu.Lock()
		delete(s.active, exec.hash)
		s.mu.Unlock()
		exec.mu.Lock()
		exec.finishedAt = time.Now()
		exec.mu.Unlock()
		exec.cancel() // release the context's timer; the outcome is sealed
		exec.flight.Finish(out, nil)
	}
}

// sealDurable persists a terminal outcome: blob first, then the done
// record (a crash between the two replays as pending, which only costs
// a re-run). During shutdown only completed results are sealed — a job
// canceled or cut to a partial by the daemon winding down must replay
// as pending and resume from its checkpoint after restart.
func (s *Service) sealDurable(exec *execution, out *outcome) {
	if s.journal == nil {
		return
	}
	if s.baseCtx.Err() != nil && out.result == nil {
		return
	}
	if err := s.journal.writeOutcome(exec.hash, out); err != nil {
		s.logf("job %s: persisting outcome: %v", shortHash(exec.hash), err)
		return
	}
	s.journalAppend(recDone, []byte(exec.hash), []byte(out.state()))
	s.journal.removeCheckpoint(exec.hash)
}

// runProtected executes one attack with the worker's panic boundary:
// core.RunSafe already converts attack-internal panics, and this outer
// recover catches everything else (hooks, option plumbing), so a worker
// goroutine can never take the daemon down.
func (s *Service) runProtected(exec *execution) (out *outcome) {
	defer func() {
		if r := recover(); r != nil {
			s.cPanics.Inc()
			s.logf("job %s: worker panic recovered: %v", shortHash(exec.hash), r)
			out = &outcome{jobErr: &JobError{Kind: KindPanic, Err: fmt.Errorf("worker panic: %v", r)}}
		}
	}()

	jobSpan := s.tel.StartSpan("job")
	jobSpan.SetArg("hash", shortHash(exec.hash))
	defer jobSpan.End()

	exec.mu.Lock()
	exec.running = true
	exec.startedAt = time.Now()
	exec.mu.Unlock()
	s.gRunning.Add(1)
	defer s.gRunning.Add(-1)

	if hook := s.beforeRun; hook != nil {
		if err := hook(exec.ctx, exec.hash); err != nil {
			return s.finishOutcome(exec, nil, err, time.Time{})
		}
	}
	if err := exec.ctx.Err(); err != nil {
		// Every submitter left (or the deadline passed) while the job was
		// still queued: nothing ran, nothing partial to report.
		jobSpan.SetArg("state", string(StateCanceled))
		return &outcome{jobErr: &JobError{Kind: KindCanceled, Err: err}}
	}

	req := exec.parsed.req
	sim, err := oracle.NewSim(exec.parsed.orig)
	if err != nil {
		return &outcome{jobErr: &JobError{Kind: KindAttackFailed, Err: err}}
	}
	opts := core.Options{
		Oracle:        sim,
		Context:       exec.ctx,
		Seed:          req.Seed,
		SATWidthLimit: req.SATWidthLimit,
		Workers:       req.Workers,
		Telemetry:     exec.tel,
		Events:        exec.bus,
	}
	if w := s.armDurability(exec, &opts); w != nil {
		defer w.Close()
	}
	s.cAttackRuns.Inc()
	start := time.Now()
	var (
		res     *core.Result
		fullKey []bool
		flip    float64
		runErr  error
	)
	if req.MCAS {
		var mres *core.MCASResult
		mres, runErr = core.RunMCASSafe(exec.parsed.locked, sim, opts)
		if runErr == nil {
			res, fullKey, flip = mres.Inner, mres.Key, mres.RemovedFlipProb
		}
	} else {
		opts.Locked = exec.parsed.locked
		res, runErr = core.RunSafe(opts)
		if runErr == nil {
			fullKey = res.Key
		}
	}
	out = s.buildOutcome(exec, req, res, fullKey, flip, runErr, start)
	s.cQueries.Add(queriesOf(res, exec.tel))
	jobSpan.SetArg("state", string(out.state()))
	return s.sealTrace(exec, out)
}

// armDurability points a journal-armed job at its checkpoint slot in
// the blob store: resume from an existing snapshot when its oracle
// identity matches, and arm a writer so progress survives the next
// crash. Returns nil (no durability) when the journal is off or the
// writer cannot start — the attack still runs, just non-resumably.
func (s *Service) armDurability(exec *execution, opts *core.Options) *checkpoint.Writer {
	if s.journal == nil {
		return nil
	}
	oracleHash := exec.parsed.oracleHash
	path := s.journal.checkpointPath(exec.hash)
	if snap, err := checkpoint.Load(path); err == nil {
		if snap.OracleHash == "" || snap.OracleHash == oracleHash {
			opts.ResumeFrom = snap
			s.tel.Counter("journal_resumed_from_checkpoint_total").Inc()
			s.logf("job %s: resuming from checkpoint (phase=%s, enumeration complete=%t)",
				shortHash(exec.hash), snap.Phase, snap.EnumComplete)
		} else {
			s.logf("job %s: checkpoint oracle hash mismatch, starting fresh", shortHash(exec.hash))
		}
	}
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path:       path,
		OracleHash: oracleHash,
		Telemetry:  exec.tel,
	})
	if err != nil {
		s.logf("job %s: checkpoint writer: %v", shortHash(exec.hash), err)
		return nil
	}
	opts.Checkpointer = w
	s.journalAppend(recCheckpointRef, []byte(exec.hash), []byte(filepath.Join("cas", "ck-"+exec.hash+".bin")))
	return w
}

// finishOutcome wraps a pre-attack failure (hook error) uniformly.
func (s *Service) finishOutcome(exec *execution, res *core.Result, err error, _ time.Time) *outcome {
	out := s.buildOutcome(exec, exec.parsed.req, res, nil, 0, err, time.Now())
	return s.sealTrace(exec, out)
}

// buildOutcome classifies an attack error into the job state machine.
func (s *Service) buildOutcome(exec *execution, req AttackRequest, res *core.Result, fullKey []bool, flip float64, runErr error, start time.Time) *outcome {
	if runErr == nil && res != nil {
		return &outcome{result: &JobResult{
			Key:             bitString(fullKey),
			Chain:           res.Chain.String(),
			Case:            res.Case,
			KeyGates1:       gateString(res.KeyGates1),
			KeyGates2:       gateString(res.KeyGates2),
			AlignedDIPs:     res.AlignedDIPs,
			TotalDIPs:       res.TotalDIPs,
			OracleQueries:   res.OracleQueries,
			Extractions:     res.Extractions,
			Calibrations:    res.Calibrations,
			CandidatesTried: res.CandidatesTried,
			MCAS:            req.MCAS,
			RemovedFlipProb: flip,
			ElapsedMS:       time.Since(start).Milliseconds(),
		}}
	}
	var pe *core.PartialError
	if errors.As(runErr, &pe) {
		return &outcome{partial: &PartialInfo{
			Stage:       pe.Stage,
			Case:        pe.Case,
			Chain:       chainString(pe.Chain),
			KeyGates:    gateString(pe.KeyGates),
			DIPs:        pe.DIPs,
			Extractions: pe.Extractions,
			Cause:       pe.Err.Error(),
		}}
	}
	var panicErr *core.PanicError
	if errors.As(runErr, &panicErr) {
		s.cPanics.Inc()
		s.logf("job %s: attack panic recovered: %v", shortHash(exec.hash), panicErr.Value)
		return &outcome{jobErr: &JobError{Kind: KindPanic, Err: panicErr}}
	}
	return &outcome{jobErr: &JobError{Kind: KindAttackFailed, Err: runErr}}
}

// sealTrace snapshots the per-job span tree into the outcome so cache
// hits and late readers see the trace without holding the registry.
func (s *Service) sealTrace(exec *execution, out *outcome) *outcome {
	var buf bytes.Buffer
	if err := exec.tel.WriteChromeTrace(&buf); err == nil {
		out.trace = buf.Bytes()
	}
	return out
}

// queriesOf reads the execution's oracle-query spend for the service
// counter: the Result's tally when the attack finished, the registry's
// counter when it was interrupted midway.
func queriesOf(res *core.Result, tel *telemetry.Registry) uint64 {
	if res != nil {
		return res.OracleQueries
	}
	return tel.Counter("attack_oracle_queries_total").Value()
}

func bitString(key []bool) string {
	var sb strings.Builder
	for _, b := range key {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func gateString(kg []netlist.GateType) string {
	if kg == nil {
		return ""
	}
	parts := make([]string, len(kg))
	for i, t := range kg {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}

func chainString(c fmt.Stringer) string {
	if c == nil {
		return ""
	}
	return c.String()
}
