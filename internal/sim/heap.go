package sim

// eventHeap is a binary min-heap of events ordered by (when, seq). A
// hand-rolled heap (rather than container/heap) avoids interface boxing on
// the hottest path of the simulator.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event of a non-empty heap.
func (h *eventHeap) pop() *Event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	old.swap(0, n)
	old[n] = nil // let a fired callback's closure be collected
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
}
