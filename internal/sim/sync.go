package sim

// fifo is a ring buffer: unlike a slice popped with s = s[1:] it reuses its
// backing array, so a queue in steady state never reallocates.
type fifo[T any] struct {
	buf     []T // len(buf) is zero or a power of two
	head, n int // index of the oldest element, elements held
}

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		grown := make([]T, max(4, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// pop removes and returns the oldest element, zeroing its slot so the
// garbage collector can reclaim what it referenced.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Signal is a condition-variable-like primitive. Processes Wait on it;
// Notify wakes the longest-waiting process, Broadcast wakes all. Wakeups
// go through the event queue, preserving deterministic ordering.
type Signal struct {
	name    string
	waiters fifo[*Proc]
}

// NewSignal returns a named signal (the name appears in trace output).
func NewSignal(name string) *Signal { return &Signal{name: name} }

// Wait parks the calling process until a Notify or Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters.push(p)
	p.park()
}

// Notify wakes the longest-waiting process, if any. It must be called from
// simulation context.
func (s *Signal) Notify() {
	if s.waiters.n > 0 {
		s.waiters.pop().wake("notify:", s.name)
	}
}

// Broadcast wakes every waiting process.
func (s *Signal) Broadcast() {
	for s.waiters.n > 0 {
		s.waiters.pop().wake("broadcast:", s.name)
	}
}

// Waiting returns the number of processes blocked on the signal.
func (s *Signal) Waiting() int { return s.waiters.n }

// Queue is an unbounded FIFO mailbox. Put never blocks; Get blocks the
// calling process until an item is available. Items are delivered in FIFO
// order and each wakes at most one getter.
type Queue[T any] struct {
	name    string
	items   fifo[T]
	getters fifo[*Proc]
}

// NewQueue returns a named queue.
func NewQueue[T any](name string) *Queue[T] { return &Queue[T]{name: name} }

// Put appends an item and wakes the longest-waiting getter, if any. It
// must be called from simulation context and never blocks.
func (q *Queue[T]) Put(item T) {
	q.items.push(item)
	if q.getters.n > 0 {
		q.getters.pop().wake("put:", q.name)
	}
}

// Get removes and returns the head item, blocking the calling process
// until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.n == 0 {
		q.getters.push(p)
		p.park()
	}
	return q.items.pop()
}

// TryGet removes and returns the head item if one is present.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.n == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.n }
