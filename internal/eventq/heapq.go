package eventq

// heapQueue is the 4-ary-heap scheduling queue: compared to the binary
// layout it halves the sift depth (and therefore the swap count) at the
// price of up to three extra comparisons per level — a good trade when the
// comparison keys live inline in the pointer-free entries, as the four
// children share cache lines.
//
// It is the engine's only queue (see the package comment for why the
// calendar queue that once sat in front of it was deleted). pop and peek
// may only be called while length() > 0; both return the globally smallest
// entry under before(), which is what makes every simulation deterministic.
type heapQueue struct {
	h []entry
}

func (q *heapQueue) length() int { return len(q.h) }

// peek returns the earliest entry without removing it.
func (q *heapQueue) peek() entry { return q.h[0] }

// push appends an entry and restores the heap invariant (sift-up).
func (q *heapQueue) push(it entry) {
	h := append(q.h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.h = h
}

// pop removes and returns the earliest entry. Callers must check length.
func (q *heapQueue) pop() entry {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.h = h
	// Sift-down.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if h[j].before(h[min]) {
				min = j
			}
		}
		if !h[min].before(h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
