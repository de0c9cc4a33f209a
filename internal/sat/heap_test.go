package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// swapHeap is the textbook swap-based indexed max-heap the hole-based
// varHeap replaced, kept verbatim as the reference layout.
type swapHeap struct {
	heap     []int
	position []int
	activity *[]float64
}

func (h *swapHeap) less(a, b int) bool { return (*h.activity)[a] > (*h.activity)[b] }

func (h *swapHeap) grow(n int) {
	for len(h.position) < n {
		h.position = append(h.position, -1)
	}
}

func (h *swapHeap) contains(v int) bool { return v < len(h.position) && h.position[v] >= 0 }

func (h *swapHeap) push(v int) {
	h.grow(v + 1)
	if h.contains(v) {
		return
	}
	h.position[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.siftUp(len(h.heap) - 1)
}

func (h *swapHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.position[v] = -1
	if last > 0 {
		h.siftDown(0)
	}
	return v
}

func (h *swapHeap) remove(v int) {
	if !h.contains(v) {
		return
	}
	i := h.position[v]
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.position[v] = -1
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
}

func (h *swapHeap) update(v int) {
	if h.contains(v) {
		h.siftUp(h.position[v])
	}
}

func (h *swapHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *swapHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.position[h.heap[i]] = i
	h.position[h.heap[j]] = j
}

func (h *swapHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < n && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// TestVarHeapMatchesSwapReference drives the hole-based heap and the
// swap-based reference through the same random push/pop/update/remove
// sequences, including the solver's global rescale (which the solver
// no longer follows with a re-heapify), over activities full of ties.
// After every step both heaps must hold the same layout and positions:
// the hole-based sifts are a cheaper form of the same comparisons, not
// a different order, so the solver's decisions cannot move.
func TestVarHeapMatchesSwapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nVars := 1 + rng.Intn(60)
		var act []float64
		for v := 0; v < nVars; v++ {
			act = append(act, 0)
		}
		got := newVarHeap(&act)
		ref := &swapHeap{activity: &act}
		check := func(step int, op string) {
			t.Helper()
			if !slices.Equal(got.heap, ref.heap) || !slices.Equal(got.position, ref.position) {
				t.Fatalf("trial %d step %d (%s): heap %v pos %v, reference heap %v pos %v",
					trial, step, op, got.heap, got.position, ref.heap, ref.position)
			}
		}
		for v := 0; v < nVars; v++ {
			got.push(v)
			ref.push(v)
			check(-1, "push")
		}
		inc := 1.0
		for step := 0; step < 400; step++ {
			v := rng.Intn(nVars)
			inc *= 1.3
			var op string
			switch k := rng.Intn(10); {
			case k < 3: // bump: few distinct increments, so ties abound
				op = "update"
				act[v] += float64(rng.Intn(3)) * inc
				got.update(v)
				ref.update(v)
			case k < 5 || k == 9:
				op = "push"
				got.push(v)
				ref.push(v)
			case k < 7:
				op = "pop"
				if len(ref.heap) == 0 {
					continue
				}
				if a, b := got.pop(), ref.pop(); a != b {
					t.Fatalf("trial %d step %d: pop %d, reference %d", trial, step, a, b)
				}
			case k < 8:
				// Leave the heap and come back with another variable's
				// activity (or zero): repeated values.
				op = "remove"
				got.remove(v)
				ref.remove(v)
				act[v] = act[rng.Intn(nVars)] * float64(rng.Intn(2))
			case k < 9:
				// The solver's rescale: every activity times one positive
				// constant; the reference re-heapifies, the solver does
				// not. The tiny factor drives activities into subnormals,
				// where distinct values round together.
				op = "rescale"
				f := 1e-100
				if rng.Intn(4) == 0 {
					f = 1e-310
				}
				for i := range act {
					act[i] *= f
				}
				inc *= f
				if inc == 0 {
					inc = 1
				}
				ref.rebuild()
			}
			check(step, op)
		}
	}
}
