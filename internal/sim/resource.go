package sim

// Resource models a serially-reusable piece of hardware (a CPU, a bus, a
// link) with a fixed number of identical slots. Acquire blocks until a
// slot is free; waiters are served highest-priority first, FIFO within a
// priority level. The service discipline is non-preemptive: a running
// holder is never interrupted, which matches how a bus transaction or an
// in-progress interrupt handler completes once started.
type Resource struct {
	name    string
	slots   int
	inUse   int
	lastPri int // priority of the most recent grant
	waiters []resWaiter

	// Accounting for utilisation reports.
	busyTime    Time
	lastAcquire Time
	acquires    int64

	// OnSpan, when non-nil, observes each busy interval (from the first
	// slot occupied to the last released) — the hook timeline exporters
	// build on. It runs in simulation context and must not block.
	OnSpan func(start, end Time)
}

type resWaiter struct {
	p   *Proc
	pri int
	seq uint64
}

// NewResource returns a resource with the given number of slots (>= 1).
func NewResource(name string, slots int) *Resource {
	if slots < 1 {
		panic("sim: resource needs at least one slot: " + name)
	}
	return &Resource{name: name, slots: slots}
}

// Priority levels for resource acquisition. Higher wins. These mirror the
// split the paper cares about: interrupt-context work preempts (in the
// non-preemptive, queue-jumping sense) ordinary process work on a CPU.
const (
	PriNormal = 0
	PriKernel = 1
	PriIRQ    = 2
)

// Acquire obtains a slot at PriNormal, blocking as needed.
func (r *Resource) Acquire(p *Proc) { r.AcquirePri(p, PriNormal) }

// AcquirePri obtains a slot at the given priority, blocking as needed.
func (r *Resource) AcquirePri(p *Proc, pri int) {
	e := p.eng
	if r.inUse < r.slots && len(r.waiters) == 0 {
		r.grant(e)
		r.lastPri = pri
		return
	}
	w := resWaiter{p: p, pri: pri, seq: e.seq}
	e.seq++
	r.insertWaiter(w)
	p.park()
	// The releaser granted our slot before waking us.
}

func (r *Resource) insertWaiter(w resWaiter) {
	// Insert keeping waiters sorted by (priority desc, seq asc).
	i := len(r.waiters)
	for i > 0 {
		prev := r.waiters[i-1]
		if prev.pri >= w.pri {
			break
		}
		i--
	}
	r.waiters = append(r.waiters, resWaiter{})
	copy(r.waiters[i+1:], r.waiters[i:])
	r.waiters[i] = w
}

func (r *Resource) grant(e *Engine) {
	if r.inUse == 0 {
		r.lastAcquire = e.now
	}
	r.inUse++
	r.acquires++
}

// Release frees a slot and hands it to the highest-priority waiter, if
// any. It must be called from simulation context by the holder.
func (r *Resource) Release(e *Engine) {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	if r.inUse == 0 {
		r.busyTime += e.now - r.lastAcquire
		if r.OnSpan != nil && e.now > r.lastAcquire {
			r.OnSpan(r.lastAcquire, e.now)
		}
	}
	if len(r.waiters) > 0 && r.inUse < r.slots {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.grant(e)
		r.lastPri = w.pri
		w.p.wake("grant:", r.name)
	}
}

// Use acquires a slot at PriNormal, holds it for d, then releases it.
func (r *Resource) Use(p *Proc, d Time) { r.UsePri(p, d, PriNormal) }

// UsePri acquires a slot at the given priority, holds it for d, then
// releases it. This is the workhorse for modelling "spend d nanoseconds of
// this device's time".
func (r *Resource) UsePri(p *Proc, d Time, pri int) {
	r.AcquirePri(p, pri)
	p.Sleep(d)
	r.Release(p.eng)
}

// InUse returns the number of occupied slots.
func (r *Resource) InUse() int { return r.inUse }

// HolderPri returns the priority of the most recent grant — with one
// slot, the current holder's priority. Only meaningful while InUse > 0.
func (r *Resource) HolderPri() int { return r.lastPri }

// QueueLen returns the number of blocked waiters.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// WaitersAtOrBelow counts blocked waiters with priority <= pri.
func (r *Resource) WaitersAtOrBelow(pri int) int {
	n := 0
	for _, w := range r.waiters {
		if w.pri <= pri {
			n++
		}
	}
	return n
}

// BusyTime returns the cumulative time the resource had at least one slot
// occupied, up to the last release.
func (r *Resource) BusyTime() Time { return r.busyTime }

// Acquires returns the number of successful acquisitions so far.
func (r *Resource) Acquires() int64 { return r.acquires }

// Name returns the resource's label.
func (r *Resource) Name() string { return r.name }
