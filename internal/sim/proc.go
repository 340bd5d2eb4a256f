package sim

import "fmt"

// Proc is a simulated process: a goroutine that advances only when the
// engine hands it control, and that blocks only on engine primitives.
type Proc struct {
	eng    *Engine
	name   string
	body   func(*Proc)   // until the start event runs it on a new goroutine
	resume chan struct{} // the baton, sent by whoever dispatches wakeEv
	// A parked process has exactly one pending wake, so its event lives here
	// and is reused; the label is joined only when Engine.Trace is set.
	wakeEv             Event
	waking             bool // wakeEv is in the event queue
	wakeKind, wakeName string
}

// Name returns the label the process was started with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// run is the process's goroutine, launched by whoever dispatches its
// start event. Once the body ends it keeps dispatching until it has
// passed the baton on.
func (p *Proc) run() {
	body := p.body
	p.body = nil
	// Deferred so that a body ending in runtime.Goexit (t.Fatal) still
	// passes the baton on instead of taking it to the grave.
	defer func() {
		if r := recover(); r != nil {
			panic(r) // crash now, not after running more of the simulation
		}
		p.eng.nprocs--
		p.eng.dispatch(p)
	}()
	body(p)
}

// park gives up control until the process's pending wake fires. It must
// only be called from the process's own goroutine, which keeps running the
// event loop until the baton leaves it or comes straight back.
func (p *Proc) park() {
	if !p.eng.dispatch(p) {
		<-p.resume
	}
}

// wakeAt queues the process's start or wake at time t under the trace
// label kind+name. It must be called from simulation context.
func (p *Proc) wakeAt(t Time, kind, name string) {
	e := p.eng
	if p.waking {
		panic(fmt.Sprintf("sim: %s%s wakes proc %s, which %s%s already woke", kind, name, p.name, p.wakeKind, p.wakeName))
	}
	p.waking, p.wakeKind, p.wakeName = true, kind, name
	p.wakeEv = Event{when: t, seq: e.seq, proc: p}
	e.seq++
	e.events.push(&p.wakeEv)
}

// wake queues the process to resume at the current time.
func (p *Proc) wake(kind, name string) { p.wakeAt(p.eng.now, kind, name) }

// Sleep blocks the process for d simulated nanoseconds.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %d", p.name, d))
	}
	if d == 0 {
		return
	}
	p.wakeAt(p.eng.now+d, "wake:", p.name)
	p.park()
}

// Yield parks the process and schedules it to resume at the same simulated
// time, after all other events already scheduled for this instant.
func (p *Proc) Yield() {
	p.wake("yield:", p.name)
	p.park()
}
