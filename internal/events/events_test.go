package events

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func collect(t *testing.T, s *Subscription, want int) []Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	var out []Event
	for len(out) < want {
		out = append(out, s.Poll()...)
		if len(out) >= want {
			break
		}
		if s.Closed() {
			if rest := s.Poll(); len(rest) > 0 {
				out = append(out, rest...)
				continue
			}
			break
		}
		select {
		case <-s.Wait():
		case <-deadline:
			t.Fatalf("timed out with %d/%d events", len(out), want)
		}
	}
	return out
}

func TestBusDeliversInOrder(t *testing.T) {
	b := New(Options{})
	sub := b.Subscribe(0)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: TypeDIPProgress, Count: uint64(i)})
	}
	got := collect(t, sub, 10)
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Count != uint64(i) {
			t.Fatalf("event %d has count %d, want %d", i, ev.Count, i)
		}
		if ev.TS == 0 {
			t.Fatalf("event %d missing timestamp", i)
		}
	}
}

func TestNilBusIsNoOp(t *testing.T) {
	var b *Bus
	b.Publish(Event{Type: TypeDone}) // must not panic
	b.Close()
	if got := b.History(0); got != nil {
		t.Fatalf("nil bus history = %v, want nil", got)
	}
	if b.LastSeq() != 0 {
		t.Fatal("nil bus has a sequence")
	}
	s := b.Subscribe(0)
	if !s.Closed() {
		t.Fatal("nil-bus subscription should be pre-closed")
	}
	if evs := s.Poll(); len(evs) != 0 {
		t.Fatalf("nil-bus subscription has %d events", len(evs))
	}
}

func TestSlowSubscriberDropsOldest(t *testing.T) {
	reg := telemetry.New()
	b := New(Options{Subscriber: 4, Telemetry: reg})
	sub := b.Subscribe(0)
	for i := 1; i <= 10; i++ {
		b.Publish(Event{Type: TypeDIPProgress, Count: uint64(i)})
	}
	got := sub.Poll()
	if len(got) != 4 {
		t.Fatalf("got %d buffered events, want ring capacity 4", len(got))
	}
	// Oldest were evicted: the survivors are the newest four, in order.
	for i, ev := range got {
		if want := uint64(7 + i); ev.Count != want {
			t.Fatalf("survivor %d has count %d, want %d", i, ev.Count, want)
		}
	}
	if d := sub.Dropped(); d != 6 {
		t.Fatalf("subscription dropped %d, want 6", d)
	}
	if c := reg.Counter("events_dropped_total").Value(); c != 6 {
		t.Fatalf("events_dropped_total = %d, want 6", c)
	}
}

func TestSubscribeReplaysHistoryAfterSeq(t *testing.T) {
	b := New(Options{})
	for i := 1; i <= 8; i++ {
		b.Publish(Event{Type: TypeDIPProgress, Count: uint64(i)})
	}
	sub := b.Subscribe(5) // Last-Event-ID: 5 → replay 6,7,8
	got := sub.Poll()
	if len(got) != 3 {
		t.Fatalf("replayed %d events, want 3", len(got))
	}
	for i, ev := range got {
		if want := uint64(6 + i); ev.Seq != want {
			t.Fatalf("replay %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	// Live events continue after the replayed tail.
	b.Publish(Event{Type: TypeDone})
	live := collect(t, sub, 1)
	if len(live) != 1 || live[0].Seq != 9 {
		t.Fatalf("live after replay = %+v, want seq 9", live)
	}
}

func TestHistoryRingEviction(t *testing.T) {
	b := New(Options{History: 8})
	for i := 1; i <= 20; i++ {
		b.Publish(Event{Type: TypeDIPProgress})
	}
	all := b.History(0)
	if len(all) != 8 {
		t.Fatalf("history retains %d, want 8", len(all))
	}
	if all[0].Seq != 13 || all[7].Seq != 20 {
		t.Fatalf("history window [%d, %d], want [13, 20]", all[0].Seq, all[7].Seq)
	}
	if got := b.History(18); len(got) != 2 {
		t.Fatalf("History(18) = %d events, want 2", len(got))
	}
}

func TestCloseEndsSubscriptionsAfterDrain(t *testing.T) {
	b := New(Options{})
	sub := b.Subscribe(0)
	b.Publish(Event{Type: TypePhaseEnter, Phase: "enumerate"})
	b.Publish(Event{Type: TypeDone})
	b.Close()
	b.Close()                               // idempotent
	b.Publish(Event{Type: TypeDIPProgress}) // dropped after close
	got := collect(t, sub, 2)
	if len(got) != 2 {
		t.Fatalf("drained %d events, want 2", len(got))
	}
	if !sub.Closed() {
		t.Fatal("subscription should be closed")
	}
	if b.LastSeq() != 2 {
		t.Fatalf("post-close publish advanced seq to %d", b.LastSeq())
	}
	// History stays readable after close, and late subscribers get the
	// retained tail on a pre-closed subscription.
	late := b.Subscribe(0)
	if !late.Closed() {
		t.Fatal("late subscription should arrive closed")
	}
	if got := late.Poll(); len(got) != 2 {
		t.Fatalf("late subscriber replayed %d, want 2", len(got))
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New(Options{Subscriber: 64})
	const (
		publishers = 4
		perPub     = 500
		readers    = 3
	)
	var wg sync.WaitGroup
	seen := make([]uint64, readers) // highest seq observed per reader
	for r := 0; r < readers; r++ {
		sub := b.Subscribe(0)
		wg.Add(1)
		go func(r int, sub *Subscription) {
			defer wg.Done()
			var last uint64
			for {
				for _, ev := range sub.Poll() {
					if ev.Seq <= last {
						t.Errorf("reader %d saw seq %d after %d", r, ev.Seq, last)
						return
					}
					last = ev.Seq
				}
				if sub.Closed() && len(sub.Poll()) == 0 {
					seen[r] = last
					return
				}
				<-sub.Wait()
			}
		}(r, sub)
	}
	var pwg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Event{Type: TypeDIPProgress})
			}
		}()
	}
	pwg.Wait()
	b.Close()
	wg.Wait()
	for r, last := range seen {
		if last == 0 {
			t.Fatalf("reader %d saw nothing", r)
		}
	}
	if b.LastSeq() != publishers*perPub {
		t.Fatalf("published %d events, want %d", b.LastSeq(), publishers*perPub)
	}
}

func TestMarshalNDJSONRoundTrips(t *testing.T) {
	ev := Event{
		Seq: 7, TS: 1700000000000, Type: TypeCrossover, Phase: "calibrate",
		Fields: map[string]string{"engine": "sim"},
	}
	line := string(ev.MarshalNDJSON())
	for _, want := range []string{`"seq":7`, `"type":"crossover"`, `"engine":"sim"`} {
		if !contains(line, want) {
			t.Fatalf("NDJSON %q missing %q", line, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
