package relwin

// Resequencer wraps Receiver with a bounded out-of-order buffer: frames
// arriving ahead of the expected sequence are parked (up to limit) and
// released in order once the gap fills. This is what lets CLIC stripe the
// fragments of one channel across bonded NICs (§5) without tripping
// go-back-N on the benign reordering two parallel links introduce; real
// losses still leave a gap that only a retransmission fills.
type Resequencer[T any] struct {
	r     Receiver
	buf   map[Seq]T
	limit int
}

// NewResequencer returns a resequencer buffering at most limit frames.
func NewResequencer[T any](limit int) *Resequencer[T] {
	if limit < 0 {
		panic("relwin: negative resequencer limit")
	}
	return &Resequencer[T]{buf: map[Seq]T{}, limit: limit}
}

// Accept processes an arriving frame and returns the frames now
// deliverable, in sequence order (possibly empty). ok is false when the
// frame was dropped as a duplicate or because the buffer is full.
func (q *Resequencer[T]) Accept(seq Seq, item T) (deliver []T, ok bool) {
	ok = q.AcceptFunc(seq, item, func(t T) { deliver = append(deliver, t) })
	return deliver, ok
}

// AcceptFunc is Accept in callback form: every frame that becomes
// deliverable is passed to emit, in sequence order, instead of being
// collected into a freshly allocated slice. This is the hot-path entry —
// for the common in-order case it runs one comparison, one map lookup
// and the callback, with zero allocations. ok follows Accept's contract.
func (q *Resequencer[T]) AcceptFunc(seq Seq, item T, emit func(T)) bool {
	switch q.r.Accept(seq) {
	case Deliver:
		emit(item)
		// Drain any parked successors.
		for {
			next, present := q.buf[q.r.expected]
			if !present {
				break
			}
			delete(q.buf, q.r.expected)
			q.r.expected++
			emit(next)
		}
		return true
	case Duplicate:
		return false
	default: // OutOfOrder
		if _, present := q.buf[seq]; present {
			return false
		}
		if len(q.buf) >= q.limit {
			return false
		}
		q.buf[seq] = item
		return true
	}
}

// CumAck returns the cumulative acknowledgement point (next in-order
// sequence still missing).
func (q *Resequencer[T]) CumAck() Seq { return q.r.CumAck() }

// DrainParked releases every parked out-of-order frame through release
// and empties the buffer WITHOUT advancing the expected sequence: the
// cumulative ack point is unchanged, so the sender's retransmissions
// re-deliver whatever was dropped. The live stack calls it when bye or
// a reconnect removes a channel, to return its parked pooled buffers.
func (q *Resequencer[T]) DrainParked(release func(Seq, T)) {
	for seq, item := range q.buf {
		if release != nil {
			release(seq, item)
		}
		delete(q.buf, seq)
	}
}

// Buffered returns the number of parked out-of-order frames.
func (q *Resequencer[T]) Buffered() int { return len(q.buf) }
