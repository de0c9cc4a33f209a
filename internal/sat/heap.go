package sat

// varHeap is an indexed max-heap of variables ordered by VSIDS activity.
// It supports decrease/increase-key by tracking each variable's position.
//
// The sifts are hole-based: the moving variable is held aside, parents
// or children shift into the hole, and the variable is written once at
// its final slot. They make the same comparisons in the same order as
// the textbook swap form (a child overtakes its parent only on strictly
// greater activity, the left child wins a tie with the right), so every
// heap layout, and with it every decision and tie-break, is the same.
type varHeap struct {
	heap     []int // heap of variable indices
	position []int // position[v] = index in heap, or -1
	activity *[]float64
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

// grow ensures position tracking covers variables [0, n).
func (h *varHeap) grow(n int) {
	for len(h.position) < n {
		h.position = append(h.position, -1)
	}
}

func (h *varHeap) contains(v int) bool {
	return v < len(h.position) && h.position[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) push(v int) {
	h.grow(v + 1)
	if h.contains(v) {
		return
	}
	h.heap = append(h.heap, v)
	h.siftUp(len(h.heap)-1, v)
}

// pop removes and returns the most active variable; the last element
// moves into the root and sifts down.
func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	x := h.heap[last]
	h.heap = h.heap[:last]
	h.position[v] = -1
	if last > 0 {
		h.siftDown(0, x)
	}
	return v
}

// remove deletes v from the heap if present (aux-var exclusion).
func (h *varHeap) remove(v int) {
	if !h.contains(v) {
		return
	}
	i := h.position[v]
	last := len(h.heap) - 1
	x := h.heap[last]
	h.heap = h.heap[:last]
	h.position[v] = -1
	if i < last {
		h.siftDown(i, x)
		h.siftUp(i, h.heap[i])
	}
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if h.contains(v) {
		h.siftUp(h.position[v], v)
	}
}

// siftUp places v, whose slot is i, by moving it towards the root past
// every parent of strictly lower activity.
func (h *varHeap) siftUp(i, v int) {
	act := *h.activity
	heap, pos := h.heap, h.position
	a := act[v]
	for i > 0 {
		parent := (i - 1) / 2
		p := heap[parent]
		if !(a > act[p]) {
			break
		}
		heap[i] = p
		pos[p] = i
		i = parent
	}
	heap[i] = v
	pos[v] = i
}

// siftDown places v into the hole at slot i, moving it towards the
// leaves past every child of strictly higher activity (the more active
// child first, the left one on a tie).
func (h *varHeap) siftDown(i, v int) {
	act := *h.activity
	heap, pos := h.heap, h.position
	n := len(heap)
	a := act[v]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best, bestAct := i, a
		if la := act[heap[l]]; la > bestAct {
			best, bestAct = l, la
		}
		if r := l + 1; r < n && act[heap[r]] > bestAct {
			best = r
		}
		if best == i {
			break
		}
		c := heap[best]
		heap[i] = c
		pos[c] = i
		i = best
	}
	heap[i] = v
	pos[v] = i
}
