package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSumPartsBoundaries(t *testing.T) {
	a := SumParts([]byte("ab"), []byte("c"))
	b := SumParts([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("part boundaries must be hashed")
	}
	if a != SumParts([]byte("ab"), []byte("c")) {
		t.Fatal("digest not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(a))
	}
}

func TestLRUEviction(t *testing.T) {
	l := NewLRU[int, string](2)
	if _, ok := l.Get(1); ok {
		t.Fatal("empty LRU hit")
	}
	l.Put(1, "a")
	l.Put(2, "b")
	if _, ok := l.Get(1); !ok { // touch 1: 2 becomes LRU
		t.Fatal("1 missing")
	}
	l.Put(3, "c") // evicts 2
	if _, ok := l.Get(2); ok {
		t.Fatal("2 should be evicted")
	}
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("1 = %q,%v", v, ok)
	}
	if l.Len() != 2 {
		t.Fatalf("len %d", l.Len())
	}
	l.Put(1, "a2") // update keeps size
	if v, _ := l.Get(1); v != "a2" {
		t.Fatal("update lost")
	}
	if l.Len() != 2 {
		t.Fatalf("len %d after update", l.Len())
	}
}

func TestLRUUnbounded(t *testing.T) {
	l := NewLRU[int, int](0)
	for i := 0; i < 100; i++ {
		l.Put(i, i)
	}
	if l.Len() != 100 {
		t.Fatalf("unbounded LRU evicted: len %d", l.Len())
	}
}

// TestStore exercises the LRU in its role as the content-addressed
// result store: keys are SumParts digests, so equal inputs hit and
// distinct inputs miss.
func TestStore(t *testing.T) {
	s := NewLRU[string, int](4)
	key := SumParts([]byte("locked"), []byte("oracle"))
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store hit")
	}
	s.Put(key, 7)
	if v, ok := s.Get(SumParts([]byte("locked"), []byte("oracle"))); !ok || v != 7 {
		t.Fatalf("stored value = %d,%v", v, ok)
	}
	if _, ok := s.Get(SumParts([]byte("lockedoracle"))); ok {
		t.Fatal("distinct parts share a digest")
	}
}

// TestGroupCollapses runs many concurrent joiners of one key and checks
// the computation executed once and everyone saw its result.
func TestGroupCollapses(t *testing.T) {
	g := NewGroup[int]()
	lead, leader := g.Join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	var followers atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, isLeader := g.Join("k")
			if isLeader {
				t.Error("follower became leader while the flight is open")
				return
			}
			followers.Add(1)
			<-f.Done
			v, err := f.Result()
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Finish only after every follower attached: the flight stays in the
	// group until Finish, so all 16 collapse onto it.
	for followers.Load() != 16 {
		runtime.Gosched()
	}
	lead.Finish(42, nil)
	wg.Wait()
	for i, v := range results {
		if v != 42 {
			t.Fatalf("joiner %d saw %d", i, v)
		}
	}
	// After Finish the key starts a fresh flight.
	if _, leader := g.Join("k"); !leader {
		t.Fatal("finished flight still joinable")
	}
}

// TestGroupCancelOnLastLeave verifies the refcounted abort: when every
// joiner leaves before Finish, the cancel hook fires exactly once.
func TestGroupCancelOnLastLeave(t *testing.T) {
	g := NewGroup[int]()
	f, leader := g.Join("k")
	if !leader {
		t.Fatal("want leader")
	}
	f2, leader2 := g.Join("k")
	if leader2 || f2 != f {
		t.Fatal("second join must follow the first flight")
	}
	var cancels atomic.Int32
	f.SetCancel(func() { cancels.Add(1) })
	f.Leave()
	if cancels.Load() != 0 {
		t.Fatal("cancelled while a joiner remains")
	}
	f.Leave()
	if cancels.Load() != 1 {
		t.Fatalf("cancel fired %d times, want 1", cancels.Load())
	}
	// The leader still finishes (with its context's error); waiters see it.
	f.Finish(0, errors.New("cancelled"))
	<-f.Done
	if _, err := f.Result(); err == nil {
		t.Fatal("want recorded error")
	}
}

// TestGroupCancelHookInstalledLate covers the race where all joiners
// leave before the leader installed the hook.
func TestGroupCancelHookInstalledLate(t *testing.T) {
	g := NewGroup[int]()
	f, _ := g.Join("k")
	f.Leave() // refcount hits zero with no hook yet
	var fired atomic.Bool
	f.SetCancel(func() { fired.Store(true) })
	if !fired.Load() {
		t.Fatal("late-installed hook must fire immediately")
	}
}

// TestGroupDistinctKeysIndependent checks no cross-key interference.
func TestGroupDistinctKeysIndependent(t *testing.T) {
	g := NewGroup[string]()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			f, leader := g.Join(key)
			if !leader {
				t.Errorf("key %s: not leader", key)
				return
			}
			f.Finish(key, nil)
			<-f.Done
			if v, _ := f.Result(); v != key {
				t.Errorf("key %s saw %q", key, v)
			}
		}(i)
	}
	wg.Wait()
}
