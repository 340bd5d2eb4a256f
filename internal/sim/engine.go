// Package sim implements a deterministic process-oriented discrete-event
// simulation engine.
//
// Simulated activities (application processes, device drivers, DMA engines,
// switch ports) run as goroutines wrapped in a Proc. The engine executes
// exactly one Proc at a time and orders simultaneous events by a sequence
// number, so a simulation run is bit-for-bit reproducible for a given seed.
//
// There is no engine goroutine. Whichever goroutine is running holds the
// baton: the right to pop events. RunUntil's caller starts with it; a Proc
// that parks (or exits) keeps dispatching on its own stack, firing
// callbacks inline, and returns at once if the next event is its own wake.
// Only when the next event belongs to another Proc does it hand the baton
// over — one goroutine switch — and when the queue drains, Stop is called
// or the limit is reached it hands the baton back to RunUntil's caller.
//
// Simulated time is an int64 count of nanoseconds (type Time). Procs block
// on engine-owned primitives (Sleep, Queue.Get, Resource.Acquire,
// Signal.Wait); plain Go channel operations or OS sleeps must never be used
// to synchronise simulated activities.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a simulated instant or duration in nanoseconds.
type Time = int64

// Handy duration units in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Engine is the simulation core: a clock, an event queue and a set of
// processes. Create one with NewEngine, add processes with Go, then call
// Run or RunUntil.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64 // tie-breaker for simultaneous events
	rng    *rand.Rand

	limit Time          // of the RunUntil call in progress, < 0 for none
	home  chan struct{} // returns the baton to RunUntil's caller

	nprocs  int // live (started, not yet finished) procs
	stopped bool

	// Trace, when non-nil, receives a line per event dispatch. Intended
	// for debugging small scenarios only.
	Trace func(t Time, what string)
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), home: make(chan struct{}, 1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (procs or callbacks).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Event is a handle to a scheduled occurrence; it can be cancelled.
type Event struct {
	when     Time
	seq      uint64
	canceled bool
	fire     func() // callback to run, or
	proc     *Proc  // process to start or resume
	label    string // of a callback; a proc's wake carries its own
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() {
	if ev != nil {
		ev.canceled = true
	}
}

// Canceled reports whether Cancel was called on the event.
func (ev *Event) Canceled() bool { return ev.canceled }

// At schedules fn to run as a callback at absolute time t (>= Now).
// Callbacks run inside the engine loop, on the stack of whichever goroutine
// holds the baton: they may schedule further events, put to queues, notify
// signals and release resources, but must not block.
func (e *Engine) At(t Time, label string, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %d, before now %d", label, t, e.now))
	}
	ev := &Event{when: t, seq: e.seq, fire: fn, label: label}
	e.seq++
	e.events.push(ev)
	return ev
}

// After schedules fn to run as a callback d nanoseconds from now.
func (e *Engine) After(d Time, label string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d for event %q", d, label))
	}
	return e.At(e.now+d, label, fn)
}

// Go starts a new process executing fn at the current time. The Proc
// passed to fn is the process's handle for all blocking operations.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc { return e.GoAt(e.now, name, fn) }

// GoAt starts a new process at absolute time t.
func (e *Engine) GoAt(t Time, name string, fn func(*Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: starting proc %q at %d, before now %d", name, t, e.now))
	}
	p := &Proc{eng: e, name: name, body: fn, resume: make(chan struct{}, 1)}
	e.nprocs++
	p.wakeAt(t, "start:", name)
	return p
}

// Stop makes Run return after the current event completes. It is intended
// to be called from a callback or proc that has decided the simulation is
// over (e.g. a benchmark reached its message count).
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue is empty or Stop is called, and
// returns the final simulated time. Procs that are still blocked when the
// queue drains are abandoned (their goroutines are left parked; they hold
// no OS resources beyond their stacks, and the process exit reaps them in
// tests and benchmarks).
func (e *Engine) Run() Time { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// limit) until the queue is empty or Stop is called. The clock is left at
// the time of the last executed event.
func (e *Engine) RunUntil(limit Time) Time {
	e.limit = limit
	if !e.dispatch(nil) {
		<-e.home
	}
	return e.now
}

// dispatch runs the event loop on the calling goroutine, which holds the
// baton: self's goroutine, or RunUntil's caller when self is nil. It
// reports whether the caller keeps the baton — the next event was self's
// own wake, or the run ended in RunUntil's caller. Otherwise the baton
// has been passed on and the caller must block until it is resumed.
func (e *Engine) dispatch(self *Proc) bool {
	for !e.stopped && len(e.events) > 0 {
		ev := e.events[0]
		if ev.canceled {
			e.events.pop()
			continue
		}
		if e.limit >= 0 && ev.when > e.limit {
			e.now = e.limit // ev stays queued for a future RunUntil call
			break
		}
		e.events.pop()
		e.now = ev.when
		p := ev.proc
		if e.Trace != nil {
			label := ev.label
			if p != nil {
				label = p.wakeKind + p.wakeName // joined only for a tracer
			}
			e.Trace(e.now, label)
		}
		if p == nil {
			ev.fire()
			continue
		}
		p.waking = false
		if p == self {
			return true
		}
		if p.body != nil {
			go p.run()
		} else {
			p.resume <- struct{}{}
		}
		return false
	}
	if self != nil {
		e.home <- struct{}{}
	}
	return self == nil
}

// Pending returns the number of events (including cancelled ones not yet
// reaped) still in the queue. Intended for tests.
func (e *Engine) Pending() int { return len(e.events) }

// LiveProcs returns the number of started, unfinished processes.
func (e *Engine) LiveProcs() int { return e.nprocs }
