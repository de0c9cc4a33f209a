package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/events"
)

// defaultSSEHeartbeat is the idle keep-alive cadence on event streams:
// a comment frame every 15s defeats proxy idle timeouts without waking
// clients for nothing. Tests shorten Service.sseHeartbeat directly.
const defaultSSEHeartbeat = 15 * time.Second

// parseLastEventID reads the SSE resume position: the standard
// Last-Event-ID header a reconnecting EventSource sends, or an
// explicit ?after=N for curl-driven resumes. Unparseable values mean
// "from the beginning".
func parseLastEventID(r *http.Request) uint64 {
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("after")
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// handleEvents streams a job's lifecycle events as Server-Sent Events:
//
//	id: <seq>
//	event: <type>
//	data: <event JSON>
//
// A live job streams from its execution's bus (replaying retained
// history after Last-Event-ID first); a finished or cache-hit job
// replays its sealed history and closes. The stream always ends with a
// terminal done event, then the connection closes — an EventSource
// client that wants to stop should close on done rather than
// reconnect.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "response writer cannot stream", Kind: KindUnavailable})
		return
	}
	after := parseLastEventID(r)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	if j.exec != nil && j.exec.bus != nil {
		// Live execution — or one that just sealed: a closed bus hands
		// out a pre-closed subscription that still replays the retained
		// tail, so this path serves both without racing the worker.
		s.streamBus(w, r, fl, j.exec, after)
		return
	}
	out := j.outcome()
	if out == nil && j.exec != nil {
		// Bus-less fallback execution (the submission raced a finishing
		// flight): wait for the outcome it is about to publish.
		select {
		case <-j.exec.flight.Done:
			out = j.outcome()
		case <-r.Context().Done():
			return
		}
	}
	if out == nil {
		return
	}
	replaySealed(w, fl, out, after)
}

// writeSSE renders one event frame. The id line carries the bus
// sequence number, which is exactly what a resume echoes back.
func writeSSE(w http.ResponseWriter, ev events.Event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.MarshalNDJSON())
}

// streamBus pumps a subscription until the bus closes (job sealed) or
// the client disconnects, with heartbeat comments while idle.
//
// The worker publishes done before it finishes the flight (the outcome
// must carry the sealed history, done included), so the done frame is
// held until the outcome is readable: a client that sees done can GET
// the result at once.
func (s *Service) streamBus(w http.ResponseWriter, r *http.Request, fl http.Flusher, exec *execution, after uint64) {
	sub := exec.bus.Subscribe(after)
	defer sub.Close()
	hb := s.sseHeartbeat
	if hb <= 0 {
		hb = defaultSSEHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		// Read Closed before Poll: a bus that closes between an empty
		// Poll and the Closed check would otherwise end the stream with
		// its final frames still buffered.
		closed := sub.Closed()
		evs := sub.Poll()
		for _, ev := range evs {
			if ev.Type == events.TypeDone {
				fl.Flush()
				select {
				case <-exec.flight.Done:
				case <-ctx.Done():
					return
				}
			}
			writeSSE(w, ev)
		}
		if len(evs) > 0 {
			fl.Flush()
			continue // drain fully before blocking
		}
		if closed {
			return // sealed and drained: the done event was the last write
		}
		select {
		case <-sub.Wait():
		case <-ticker.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// replaySealed serves a terminal job's sealed history. Outcomes sealed
// by older builds carry no events; those get a synthesized done frame
// so every stream still terminates the same way.
func replaySealed(w http.ResponseWriter, fl http.Flusher, out *outcome, after uint64) {
	lastSeq := after
	sawDone := false
	for _, ev := range out.events {
		if ev.Seq <= after {
			continue
		}
		writeSSE(w, ev)
		lastSeq = ev.Seq
		sawDone = sawDone || ev.Type == events.TypeDone
	}
	if !sawDone {
		writeSSE(w, events.Event{
			Seq:      lastSeq + 1,
			TS:       time.Now().UnixMilli(),
			Type:     events.TypeDone,
			Fraction: 1,
			Fields:   map[string]string{"state": string(out.state())},
		})
	}
	fl.Flush()
}
