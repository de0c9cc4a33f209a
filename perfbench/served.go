package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

const (
	// sessionRequests bounds one service session. The service never
	// prunes its job table, so a run that kept one service for every
	// request would measure a growing heap; each session boots a fresh
	// service instead, and its boot time is a set-up sample.
	sessionRequests = 150
	// repeatShare of a session's requests repeat an earlier request of
	// the same session, drawn from its last repeatWindow distinct ones
	// (well inside the default 128-entry result cache).
	repeatShare  = 0.3
	repeatWindow = 64
	// maxNotReady bounds the retries of GET /result answering 409
	// not_finished after the SSE stream delivered done.
	maxNotReady = 10000
	// maxResumes bounds the reconnects of an event stream that ended
	// without its done event.
	maxResumes = 10
)

// servedChains are small Table-I-shaped cascades (13-input blocks) for
// the requests that miss the cache.
var servedChains = []string{"A-O-2A-O-2A-O-2A-O-A", "2A-O-4A-O-2A-O-A", "O-4A-O-4A-O-A"}

// servedRequest is one generated submission with its ground truth.
type servedRequest struct {
	body []byte
	in   *casInstance
}

func servedInstance(seed int64, i int) (*servedRequest, error) {
	s := instSeed(seed, i)
	prof, err := synth.ProfileByName("c432")
	if err != nil {
		return nil, err
	}
	host, err := synth.Generate(synth.FromProfile(prof, s))
	if err != nil {
		return nil, err
	}
	in, err := newCASInstance(host, servedChains[i%len(servedChains)], s)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.AttackRequest{Locked: in.lockedText, Oracle: in.hostText, Seed: s + 3})
	if err != nil {
		return nil, err
	}
	return &servedRequest{body: body, in: in}, nil
}

// session is one in-process caslock-served: the service with daemon
// defaults behind its HTTP handler on a loopback listener, and one
// keep-alive client.
type session struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{} // closed when Serve returns
}

// startSession boots a service and waits until it answers /healthz.
func startSession(reg *telemetry.Registry) (*session, error) {
	svc, err := service.New(service.Config{Workers: 2, QueueDepth: 16, CacheSize: 128,
		MaxTimeout: 10 * time.Minute, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &session{svc: svc, srv: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	go func() {
		defer close(s.served)
		// Serve's error is ErrServerClosed after close; any other ends
		// the session's requests, which then fail and are counted.
		_ = s.srv.Serve(ln)
	}()
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, waits for Serve to return, and drains the
// service's workers.
func (s *session) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every request of the session has completed, so Shutdown has no
	// connections to drain; its error can only be the context's.
	_ = s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.svc.Close()
}

// roundTripResult is what one request observed.
type roundTripResult struct {
	cached   bool
	queries  uint64
	notReady int // 409 not_finished answers after done
	resumes  int // event-stream reconnects before done
	submit   time.Duration
	toResult time.Duration // SSE done → result in hand
	status   service.JobStatus
	result   *service.JobResult
}

// roundTrip is one op: POST the request, follow its SSE stream until
// done, then GET the result, retrying the documented 409 not_finished
// that can follow done.
func (s *session) roundTrip(req *servedRequest, tr *opTrace) (*roundTripResult, error) {
	out := &roundTripResult{}
	t := time.Now()
	sp := tr.span("service.submit")
	var st service.JobStatus
	code, err := s.do(http.MethodPost, "/v1/attacks", req.body, &st)
	sp.End()
	out.submit = time.Since(t)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d", code)
	}
	out.cached = st.Cached

	sp = tr.span("service.sse_wait")
	out.resumes, err = s.awaitDone(st.ID)
	sp.End()
	if err != nil {
		return nil, err
	}
	done := time.Now()

	sp = tr.span("service.result_fetch")
	defer sp.End()
	var doc struct {
		Status service.JobStatus  `json:"status"`
		Result *service.JobResult `json:"result"`
		Kind   string             `json:"kind"`
	}
	for {
		doc.Kind = ""
		code, err = s.do(http.MethodGet, "/v1/attacks/"+st.ID+"/result", nil, &doc)
		if err != nil {
			return nil, err
		}
		if code != http.StatusConflict || doc.Kind != "not_finished" {
			break
		}
		if out.notReady++; out.notReady >= maxNotReady {
			return nil, fmt.Errorf("result of %s not ready after %d tries", st.ID, out.notReady)
		}
	}
	out.toResult = time.Since(done)
	if code != http.StatusOK || doc.Result == nil {
		return out, fmt.Errorf("result: HTTP %d, state %s: %s", code, doc.Status.State, doc.Status.Error)
	}
	out.status, out.result = doc.Status, doc.Result
	key := make([]bool, len(doc.Result.Key))
	for i, c := range doc.Result.Key {
		key[i] = c == '1'
	}
	if !req.in.check(key) {
		return out, fmt.Errorf("job %s: key %s fails the ground-truth check", st.ID, doc.Result.Key)
	}
	if !out.cached {
		out.queries = doc.Result.OracleQueries
	}
	return out, nil
}

// do sends one request and decodes a JSON answer into v.
func (s *session) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// awaitDone follows the job's event stream until its done event. A
// stream that ends without done is resumed from the last event seen
// (Last-Event-ID), as an EventSource client would; the resumes are
// returned for service.sse_resumes_per_op.
func (s *session) awaitDone(id string) (resumes int, err error) {
	lastID := ""
	for {
		done, err := s.readEvents(id, &lastID)
		if err != nil || done {
			return resumes, err
		}
		if resumes++; resumes > maxResumes {
			return resumes, fmt.Errorf("events of %s ended without done %d times", id, resumes)
		}
	}
}

// readEvents reads one connection of the event stream to its end,
// updating lastID, and reports whether it carried the done event.
func (s *session) readEvents(id string, lastID *string) (bool, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/attacks/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	sawDone := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			*lastID = v
		}
		if line == "event: done" {
			sawDone = true
		}
	}
	return sawDone, sc.Err()
}

// traceJob folds a finished miss's server-side evidence into l: queue
// wait and run time from the job's timestamps, attack phase times from
// its span tree.
func (s *session) traceJob(l *layers, rt *roundTripResult) error {
	st := rt.status
	if st.StartedAt == nil || st.FinishedAt == nil {
		return fmt.Errorf("job %s: finished without timestamps", st.ID)
	}
	l.add("service.misses", 1)
	l.add("core.extractions_per_op", float64(rt.result.Extractions))
	l.add("core.candidates_per_op", float64(rt.result.CandidatesTried))
	l.add("service.queue_wait_ms", ms(st.StartedAt.Sub(st.SubmittedAt)))
	l.add("service.run_ms", ms(st.FinishedAt.Sub(*st.StartedAt)))
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/attacks/"+st.ID+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	phases, err := phaseTimesFromChrome(data)
	if err != nil {
		return fmt.Errorf("job %s trace: %v", st.ID, err)
	}
	for _, p := range corePhases {
		l.add("core."+p+"_ms", ms(phases[p]))
	}
	return nil
}

func runServed(r *runner) error {
	r.workers = "service default"
	var reg *telemetry.Registry
	if r.traced {
		reg = telemetry.New()
	}
	rng := rand.New(rand.NewSource(r.seed))
	var (
		sess    *session
		history []*servedRequest
		n       int // requests in the current session
	)
	defer func() {
		if sess != nil {
			sess.close()
		}
	}()
	r.start = time.Now()
	for i := 0; r.more(); i++ {
		if sess == nil || n == sessionRequests {
			if sess != nil {
				sess.close()
			}
			t := time.Now()
			var err error
			if sess, err = startSession(reg); err != nil {
				return err
			}
			r.setups = append(r.setups, time.Since(t))
			history, n = history[:0], 0
		}
		n++
		var req *servedRequest
		if len(history) > 0 && rng.Float64() < repeatShare {
			w := min(len(history), repeatWindow)
			req = history[len(history)-w+rng.Intn(w)]
		} else {
			var err error
			if req, err = servedInstance(r.seed, i); err != nil {
				return err
			}
			history = append(history, req)
		}

		var tr *opTrace
		t := time.Now()
		if r.tracedOp(i) {
			tr = startOpTrace()
		}
		rt, err := sess.roundTrip(req, tr)
		d := time.Since(t)
		r.attempted++
		r.latencies = append(r.latencies, d)
		if rt != nil {
			r.queries += rt.queries
		}
		if err != nil {
			r.fail(i, err)
		}
		switch {
		case tr != nil:
			if err := r.traceRequest(sess, tr, req, rt); err != nil {
				return err
			}
			tr.finish(r.layers, i, d)
		case r.traced:
			r.layers.untraced++
			r.layers.untracedT += d
		}
	}
	return nil
}

// traceRequest records a traced request's service-layer evidence, and
// times the bench layer on the request's texts the way the service's
// admission parses them.
func (r *runner) traceRequest(sess *session, tr *opTrace, req *servedRequest, rt *roundTripResult) error {
	l := r.layers
	sp := tr.span("bench.parse")
	_, err1 := bench.ReadString("locked", req.in.lockedText)
	_, err2 := bench.ReadString("oracle", req.in.hostText)
	sp.End()
	if err1 != nil || err2 != nil {
		return fmt.Errorf("parsing request texts: %v %v", err1, err2)
	}
	if rt == nil || rt.result == nil {
		return nil
	}
	l.add("service.submit_ms", ms(rt.submit))
	l.add("service.done_to_result_ms", ms(rt.toResult))
	l.add("service.result_not_ready_per_op", float64(rt.notReady))
	l.add("service.sse_resumes_per_op", float64(rt.resumes))
	if rt.cached {
		l.add("service.cache_hit_ratio", 1)
		return nil
	}
	return sess.traceJob(l, rt)
}
