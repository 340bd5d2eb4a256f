// Package kernel models the slice of the Linux kernel that CLIC keeps in
// the communication path (§3): system-call entry/exit, interrupt dispatch,
// bottom halves (softirqs), the scheduler's wake-up of blocked processes,
// and sk_buff bookkeeping. CLIC's whole design argument is about which of
// these mechanisms stay in the path and what they cost, so each is an
// explicit stage here.
package kernel

import (
	"context"
	"fmt"

	"repro/internal/hw"
	"repro/internal/perfreg"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Kernel is one node's operating system.
type Kernel struct {
	Host *hw.Host

	bhQueue *sim.Queue[func(*sim.Proc)]

	// Counters for the §2 interrupt-rate experiment (E7), registered in
	// the host's telemetry registry under kernel_*_total.
	Interrupts  telemetry.Counter
	BottomHalfs telemetry.Counter
	Syscalls    telemetry.Counter
	Wakeups     telemetry.Counter
}

// New creates the kernel for a host and starts its bottom-half worker.
func New(h *hw.Host) *Kernel {
	k := &Kernel{
		Host:    h,
		bhQueue: sim.NewQueue[func(*sim.Proc)](h.Name + ":bh"),
	}
	node := telemetry.L("node", h.Name)
	h.Tel.RegisterCounter("kernel_syscalls_total", "system calls entered", &k.Syscalls, node)
	h.Tel.RegisterCounter("kernel_interrupts_total", "hardware interrupts dispatched", &k.Interrupts, node)
	h.Tel.RegisterCounter("kernel_bottom_halves_total", "softirq bottom-half dispatches", &k.BottomHalfs, node)
	h.Tel.RegisterCounter("kernel_wakeups_total", "scheduler wake-ups of blocked processes", &k.Wakeups, node)
	h.Eng.Go(h.Name+":softirq", k.bhWorker)
	return k
}

// SyscallEnter charges the user→kernel transition (half of the paper's
// 0.65 µs round trip).
func (k *Kernel) SyscallEnter(p *sim.Proc) {
	k.Syscalls.Inc()
	k.Host.CPUWork(p, k.Host.M.Host.SyscallEnter, sim.PriKernel)
}

// SyscallExit charges the kernel→user transition. On this path the
// scheduler may run (CLIC deliberately keeps it, §3.2a); the cost of an
// actual process switch is charged by Wake on the waker's side.
func (k *Kernel) SyscallExit(p *sim.Proc) {
	k.Host.CPUWork(p, k.Host.M.Host.SyscallExit, sim.PriKernel)
}

// IRQ is one interrupt line with a registered handler, serviced by a
// dedicated dispatch process: each raise queues one handler run.
type IRQ struct {
	pending *sim.Queue[struct{}]
}

// RegisterIRQ wires handler to a new interrupt line. Raising the line
// queues one dispatch; the handler runs in interrupt context (PriIRQ) and
// consumes CPU via the hw.Host helpers it is given.
func (k *Kernel) RegisterIRQ(name string, handler func(*sim.Proc)) *IRQ {
	irq := &IRQ{pending: sim.NewQueue[struct{}](name + ":irq")}
	k.Host.Eng.Go(name+":isr", func(p *sim.Proc) {
		// Dedicated interrupt goroutine: one-time isr pprof stage label
		// (clicsim -profile), so sim-side CPU profiles attribute ISR work
		// the same way the live rxLoop does.
		if perfreg.Enabled() {
			perfreg.LabelGoroutine(context.Background(), trace.SpanISR)
		}
		for {
			irq.pending.Get(p)
			k.Interrupts.Inc()
			// Vector dispatch + handler entry, then the handler body.
			k.Host.CPUWork(p, k.Host.M.Host.InterruptDispatch, sim.PriIRQ)
			handler(p)
		}
	})
	return irq
}

// Raise asserts the interrupt line. Safe to call from callbacks; multiple
// raises before dispatch each produce one handler run (handlers drain
// device state, so spurious runs are cheap no-ops as in real drivers).
func (irq *IRQ) Raise() {
	irq.pending.Put(struct{}{})
}

// BottomHalf queues fn to run in softirq context after the current
// interrupt work, the Fig. 8a receive path.
func (k *Kernel) BottomHalf(fn func(*sim.Proc)) {
	if j := k.Host.FR; j != nil {
		at := int64(k.Host.Eng.Now())
		inner := fn
		fn = func(p *sim.Proc) {
			// The span covers the softirq queue wait plus the dispatch
			// overhead the worker charged before invoking us — the latency
			// the Fig. 8b direct-call path exists to remove.
			j.Span(k.Host.Name, 0, trace.SpanBHDispatch, at, int64(p.Now()))
			inner(p)
		}
	}
	k.bhQueue.Put(fn)
}

func (k *Kernel) bhWorker(p *sim.Proc) {
	for {
		fn := k.bhQueue.Get(p)
		k.BottomHalfs.Inc()
		k.Host.CPUWork(p, k.Host.M.Host.BottomHalfDispatch, sim.PriKernel)
		if perfreg.Enabled() {
			// Per-dispatch rather than per-goroutine: a nested stage
			// restores its Do ctx on exit, so the label is re-applied for
			// each dispatch to survive.
			perfreg.Do(context.Background(), trace.SpanBottomHalf, func() { fn(p) })
		} else {
			fn(p)
		}
	}
}

// Wake charges the waker for the scheduler waking a process blocked in a
// receive call, then notifies the signal. The woken process resumes after
// the wake cost has been paid, matching "the OS scheduler will proceed as
// necessary" (§3.1).
func (k *Kernel) Wake(p *sim.Proc, s *sim.Signal) {
	k.Wakeups.Inc()
	k.Host.CPUWork(p, k.Host.M.Host.SchedulerWake, sim.PriKernel)
	s.Notify()
}

// SKBuff is the kernel's socket-buffer descriptor: it carries either an
// in-kernel copy of the data or scatter/gather references to user pages
// (the fragmented, non-contiguous send of §3.1).
type SKBuff struct {
	// Data is the packet payload as handed to (or built by) the kernel.
	Data []byte

	// UserPages reports that Data still lives in user memory and the NIC
	// will pull it with scatter/gather DMA (the 0-copy path).
	UserPages bool

	// Headroom counts header bytes composed in front of the payload.
	Headroom int
}

// String describes the buffer for traces.
func (b *SKBuff) String() string {
	loc := "kernel"
	if b.UserPages {
		loc = "user(SG)"
	}
	return fmt.Sprintf("skb{%dB %s hdr=%d}", len(b.Data), loc, b.Headroom)
}
