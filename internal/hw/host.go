// Package hw models the per-node host hardware of the paper's testbed: the
// processor (one CPU, 1.5 GHz class) and the 33 MHz/32-bit PCI bus that is
// "the bottleneck in the communication paths" (§1).
//
// Modelling conventions:
//
//   - CPU time is consumed in chunks with CPU.UsePri; nothing holds the
//     CPU across a blocking operation, so interrupt-context work
//     (sim.PriIRQ) jumps the queue between chunks — a coarse but faithful
//     rendering of IRQ preemption.
//   - Memory copies and checksums are charged as CPU time at the host's
//     memcpy/checksum bandwidth (the CPU is the limiter for those on this
//     class of machine); the memory bus is not modelled as a separate
//     resource.
//   - DMA transactions hold the PCI bus for setup + data time and do not
//     consume CPU.
package hw

import (
	"repro/internal/flight"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Host is one cluster node's hardware.
type Host struct {
	Name string
	Eng  *sim.Engine
	M    *model.Params

	// Tel is the metrics registry the node's subsystems (kernel, NICs,
	// protocol modules) register into. NewHost gives every host its own
	// registry; cluster.New replaces it with one registry shared by the
	// whole cluster before attaching subsystems, so a single export
	// carries every node, distinguished by a node=... label.
	Tel *telemetry.Registry

	// FR is the node's flight recorder. Nil (the default) disables
	// recording at the cost of a nil check per instrumentation site;
	// cluster.New points every host at one shared journal when
	// Config.Flight is set, so cross-node spans stitch in one export.
	FR *flight.Journal

	// CPU is the single processor; kernel and interrupt work queue-jumps
	// via sim.PriKernel / sim.PriIRQ.
	CPU *sim.Resource

	// PCI is the shared I/O bus all NICs on the node sit on.
	PCI *sim.Resource

	// MemBus is the shared memory bus: CPU copies and device DMA both
	// occupy it, so they contend — the §2 mechanism that makes extra
	// copies cost bandwidth even when the CPU is otherwise idle.
	// Lock order: CPU → PCI → MemBus, always.
	MemBus *sim.Resource

	// MemcpyBytes counts every byte moved by Memcpy — the observable that
	// exposes double-charged copies (a message copied to user memory once
	// should add its size here once). Registered by Instrument.
	MemcpyBytes telemetry.Counter
}

// NewHost creates a host with its CPU(s) and PCI bus.
func NewHost(eng *sim.Engine, name string, m *model.Params) *Host {
	cpus := m.Host.CPUs
	if cpus < 1 {
		cpus = 1
	}
	return &Host{
		Name:   name,
		Eng:    eng,
		M:      m,
		Tel:    telemetry.NewRegistry(),
		CPU:    sim.NewResource(name+":cpu", cpus),
		PCI:    sim.NewResource(name+":pci", 1),
		MemBus: sim.NewResource(name+":membus", 1),
	}
}

// Instrument registers the host's own metrics into its current registry.
// Called after cluster.New swaps in the shared cluster registry (the
// counters work unregistered too — registration only affects export).
func (h *Host) Instrument() {
	h.Tel.RegisterCounter("host_memcpy_bytes_total", "bytes moved by CPU memory copies",
		&h.MemcpyBytes, telemetry.L("node", h.Name))
}

// CPUWork charges d nanoseconds of CPU at the given priority.
func (h *Host) CPUWork(p *sim.Proc, d sim.Time, pri int) {
	if d > 0 {
		h.CPU.UsePri(p, d, pri)
	}
}

// copyChunk bounds one uninterruptible CPU hold for data movement: a
// kernel takes interrupts between copy bursts, so a multi-megabyte copy
// must not block the ISR path for milliseconds (that starves
// acknowledgements past the retransmission timeout and melts the
// protocol down — a bug this model faithfully reproduced before
// chunking).
const copyChunk = 64 << 10

// Memcpy charges the CPU for copying n bytes at the host memcpy rate, in
// interruptible chunks; the copy also occupies the memory bus for the
// data's bandwidth share (the bus interleaves requestors at word
// granularity, so a copy does not block a DMA for its whole duration —
// only for its share of bus cycles).
func (h *Host) Memcpy(p *sim.Proc, n int, pri int) {
	h.MemcpyBytes.Addn(int64(n))
	for n > 0 {
		chunk := n
		if chunk > copyChunk {
			chunk = copyChunk
		}
		h.memcpyChunk(p, chunk, pri)
		n -= chunk
	}
}

func (h *Host) memcpyChunk(p *sim.Proc, n int, pri int) {
	d := h.M.Host.CopyTime(n)
	if d == 0 {
		return
	}
	memShare := model.TransferTime(n, h.M.Host.MemBusBandwidth)
	if memShare > d {
		memShare = d
	}
	h.CPU.AcquirePri(p, pri)
	h.MemBus.Acquire(p)
	p.Sleep(memShare)
	h.MemBus.Release(h.Eng)
	p.Sleep(d - memShare)
	h.CPU.Release(h.Eng)
}

// Checksum charges the CPU for one checksum pass over n bytes, in
// interruptible chunks.
func (h *Host) Checksum(p *sim.Proc, n int, pri int) {
	for n > 0 {
		chunk := n
		if chunk > copyChunk {
			chunk = copyChunk
		}
		h.CPUWork(p, h.M.Host.ChecksumTime(chunk), pri)
		n -= chunk
	}
}

// DMA performs one bus-master DMA transaction of n bytes: the calling
// process (a NIC engine) holds the PCI bus for descriptor touch + setup +
// data time, and occupies the memory bus for the data's share of its
// bandwidth. No CPU is consumed.
func (h *Host) DMA(p *sim.Proc, n int) {
	total := h.M.PCI.DescriptorTouch + h.M.PCI.DMATime(n)
	memShare := model.TransferTime(n, h.M.Host.MemBusBandwidth)
	if memShare > total {
		memShare = total
	}
	h.PCI.Acquire(p)
	p.Sleep(total - memShare)
	h.MemBus.Acquire(p)
	p.Sleep(memShare)
	h.MemBus.Release(h.Eng)
	h.PCI.Release(h.Eng)
}

// PIO performs a programmed-I/O transfer of n bytes: the CPU issues the
// bus cycles itself, so both the CPU and the PCI bus are occupied for the
// (slow) transfer, in interruptible chunks. Used by the Fig. 1
// path-1/path-4 ablations.
func (h *Host) PIO(p *sim.Proc, n int, pri int) {
	for n > 0 {
		chunk := n
		if chunk > copyChunk {
			chunk = copyChunk
		}
		d := model.TransferTime(chunk, h.M.PCI.PIOBandwidth)
		h.CPU.AcquirePri(p, pri)
		h.PCI.Acquire(p)
		p.Sleep(d)
		h.PCI.Release(h.Eng)
		h.CPU.Release(h.Eng)
		n -= chunk
	}
}

// MMIOWrite charges the CPU for one posted register write to a device.
func (h *Host) MMIOWrite(p *sim.Proc, pri int) {
	h.CPUWork(p, h.M.PCI.MMIOWrite, pri)
}

// SpinPoll charges one iteration of a user-level spin-wait (§3.2b). When
// another *process* (PriNormal-or-lower work) is holding or awaiting the
// CPU, the spinner consumes a fair scheduling quantum before the other
// gets its turn — which is what a busy-wait costs a multiprogrammed
// node. Alone, or contending only with interrupt-context work (which
// preempts promptly), the spinner re-checks tightly.
func (h *Host) SpinPoll(p *sim.Proc, check, quantum sim.Time, pri int) {
	cost := check
	processHolding := h.CPU.InUse() > 0 && h.CPU.HolderPri() <= sim.PriNormal
	if processHolding || h.CPU.WaitersAtOrBelow(sim.PriNormal) > 0 {
		cost += quantum
	}
	h.CPUWork(p, cost, pri)
}
