package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/events"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    uint64
	event events.Type
	data  events.Event
}

// readSSE consumes an event stream until the server closes it (the
// contract after the terminal done event) and returns the frames.
func readSSE(t *testing.T, url string, lastEventID uint64) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("events content-type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = events.Type(line[7:])
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return frames
}

// checkStreamInvariants asserts the ordering contract every stream
// must satisfy: strictly increasing seq, every phase_exit preceded by
// its phase_enter, monotone DIP counts within each enumeration round
// (a hypothesis restart resets the baseline via the round field), and
// a done event last.
func checkStreamInvariants(t *testing.T, frames []sseFrame) {
	t.Helper()
	if len(frames) == 0 {
		t.Fatal("empty event stream")
	}
	var lastSeq uint64
	var lastDIPs uint64
	var dipRound string
	entered := map[string]int{}
	for i, f := range frames {
		if f.id <= lastSeq {
			t.Fatalf("frame %d: seq %d not increasing past %d", i, f.id, lastSeq)
		}
		lastSeq = f.id
		switch f.event {
		case events.TypePhaseEnter:
			entered[f.data.Phase]++
		case events.TypePhaseExit:
			entered[f.data.Phase]--
			if entered[f.data.Phase] < 0 {
				t.Fatalf("frame %d: phase %q exited before entering", i, f.data.Phase)
			}
		case events.TypeDIPProgress:
			if round := f.data.Fields["round"]; round != dipRound {
				dipRound, lastDIPs = round, 0
			}
			if f.data.Count > 0 {
				if f.data.Count < lastDIPs {
					t.Fatalf("frame %d: DIP count regressed %d → %d within round %q", i, lastDIPs, f.data.Count, dipRound)
				}
				lastDIPs = f.data.Count
			}
		}
	}
	last := frames[len(frames)-1]
	if last.event != events.TypeDone {
		t.Fatalf("stream ended with %q, want done", last.event)
	}
	if last.data.Fraction != 1 {
		t.Fatalf("done fraction = %v, want 1", last.data.Fraction)
	}
}

func newSSEServer(t *testing.T) (*Service, *httptest.Server, fixture) {
	t.Helper()
	f := makeFixture(t, 8, 4, 61)
	s, _ := newTestService(t, Config{Workers: 2, QueueDepth: 16})
	s.sseHeartbeat = 50 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, f
}

func TestSSEStreamsLifecycleToDone(t *testing.T) {
	s, ts, f := newSSEServer(t)
	job, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, ts.URL+"/v1/attacks/"+job.ID()+"/events", 0)
	checkStreamInvariants(t, frames)
	counts := map[events.Type]int{}
	for _, fr := range frames {
		counts[fr.event]++
	}
	if counts[events.TypePhaseEnter] == 0 {
		t.Fatalf("no phase_enter events in %v", counts)
	}
	if counts[events.TypeDone] != 1 {
		t.Fatalf("done events = %d, want 1 (%v)", counts[events.TypeDone], counts)
	}
	st := waitJob(t, job)
	if st.State != StateDone {
		t.Fatalf("job state %s", st.State)
	}
	if st.Progress == nil || st.Progress.Fraction != 1 {
		t.Fatalf("terminal status progress = %+v, want fraction 1", st.Progress)
	}
}

func TestSSELastEventIDResume(t *testing.T) {
	s, ts, f := newSSEServer(t)
	job, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	full := readSSE(t, ts.URL+"/v1/attacks/"+job.ID()+"/events", 0)
	checkStreamInvariants(t, full)
	if len(full) < 2 {
		t.Fatalf("stream too short to test resume: %d frames", len(full))
	}
	mid := full[len(full)/2].id
	resumed := readSSE(t, ts.URL+"/v1/attacks/"+job.ID()+"/events", mid)
	if len(resumed) == 0 {
		t.Fatal("resume returned nothing")
	}
	if first := resumed[0].id; first <= mid {
		t.Fatalf("resume replayed seq %d, want > %d", first, mid)
	}
	if got, want := len(resumed), len(full)-len(full)/2-1; got != want {
		t.Fatalf("resume returned %d frames, want %d", got, want)
	}
	if resumed[len(resumed)-1].event != events.TypeDone {
		t.Fatal("resumed stream did not end in done")
	}
}

func TestSSEConcurrentSubscribers(t *testing.T) {
	s, ts, f := newSSEServer(t)
	job, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const subscribers = 8
	var wg sync.WaitGroup
	results := make([][]sseFrame, subscribers)
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = readSSE(t, ts.URL+"/v1/attacks/"+job.ID()+"/events", 0)
		}(i)
	}
	wg.Wait()
	for i, frames := range results {
		if len(frames) == 0 {
			t.Fatalf("subscriber %d saw nothing", i)
		}
		checkStreamInvariants(t, frames)
	}
}

func TestSSEDisconnectMidStream(t *testing.T) {
	s, ts, f := newSSEServer(t)
	job, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Open the stream and drop it after the first bytes: the handler
	// must notice the disconnect and unwind instead of leaking.
	resp, err := http.Get(ts.URL + "/v1/attacks/" + job.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	resp.Body.Read(buf)
	resp.Body.Close()
	waitJob(t, job)
	// The service (and its handler goroutines) must still shut down
	// cleanly; t.Cleanup closes both and -race checks the rest.
	frames := readSSE(t, ts.URL+"/v1/attacks/"+job.ID()+"/events", 0)
	checkStreamInvariants(t, frames)
}

func TestSSECacheHitReplaysSealedHistory(t *testing.T) {
	s, ts, f := newSSEServer(t)
	req := AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)
	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.cached {
		t.Fatal("second submission was not a cache hit")
	}
	frames := readSSE(t, ts.URL+"/v1/attacks/"+second.ID()+"/events", 0)
	checkStreamInvariants(t, frames)
	// The cached job replays the original execution's history, not a
	// bare synthesized done.
	if len(frames) < 2 {
		t.Fatalf("cache-hit stream has %d frames, want the full sealed history", len(frames))
	}
}

// TestSSEStreamEndsWithDoneUnderConcurrentClose closes the bus while
// many streams are pumping it: whenever the close lands — before a
// stream subscribes, between its polls, or while it waits — the stream
// must drain the buffered tail and end with the done frame.
func TestSSEStreamEndsWithDoneUnderConcurrentClose(t *testing.T) {
	s, _ := newTestService(t, Config{Workers: 1})
	const trials, streams = 100, 16
	for trial := 0; trial < trials; trial++ {
		flight, _ := cache.NewGroup[*outcome]().Join("h")
		exec := &execution{bus: events.New(events.Options{}), flight: flight}
		recs := make([]*httptest.ResponseRecorder, streams)
		var wg sync.WaitGroup
		for i := range recs {
			rec := httptest.NewRecorder()
			recs[i] = rec
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.streamBus(rec, httptest.NewRequest(http.MethodGet, "/", nil), rec, exec, 0)
			}()
		}
		for i := 0; i < trial%8; i++ {
			exec.bus.Publish(events.Event{Type: events.TypeProgress})
		}
		exec.bus.Publish(events.Event{Type: events.TypeDone, Fraction: 1})
		exec.bus.Close()
		flight.Finish(&outcome{}, nil)
		wg.Wait()
		for i, rec := range recs {
			body := rec.Body.String()
			at := strings.LastIndex(body, "event: ")
			if at < 0 || !strings.HasPrefix(body[at:], "event: "+string(events.TypeDone)+"\n") {
				t.Fatalf("trial %d stream %d ended without done:\n%s", trial, i, body)
			}
		}
	}
}

// TestSSEDoneImpliesResultReadable reads each job's stream to done and
// immediately GETs its result: the done frame must never arrive before
// the outcome is readable (no 409 not_finished after done).
func TestSSEDoneImpliesResultReadable(t *testing.T) {
	f := makeFixture(t, 8, 4, 61)
	s, _ := newTestService(t, Config{Workers: 2, QueueDepth: 16, JournalDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for seed := int64(1); seed <= 24; seed++ {
		job, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		frames := readSSE(t, ts.URL+"/v1/attacks/"+job.ID()+"/events", 0)
		if len(frames) == 0 || frames[len(frames)-1].event != events.TypeDone {
			t.Fatalf("seed %d: stream did not end with done", seed)
		}
		resp, err := http.Get(ts.URL + "/v1/attacks/" + job.ID() + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: GET result right after done returned %d", seed, resp.StatusCode)
		}
	}
}
