// Package model holds the calibrated cost model for the simulated 2003-era
// cluster: every timing constant and bandwidth the reproduction uses, each
// annotated with the paper measurement (or period-typical value) it comes
// from.
//
// The paper's testbed: two PCs with 1.5 GHz processors, 33 MHz / 32-bit PCI
// buses, SMC9462TX and 3C996-T Gigabit Ethernet NICs, Linux 2.4-era kernel.
// Constants the paper states directly:
//
//   - system call enter+leave ≈ 0.65 µs (§3.1, §3.2a)
//   - CLIC_MODULE + driver on the send side ≈ 0.7 + 4 µs (Fig. 7)
//   - receiver driver interrupt routine ≈ 15 µs for a 1400 B packet,
//     reduced to ≈ 5 µs by the direct-call improvement (Fig. 7, Fig. 8)
//   - bottom halves + CLIC_MODULE on the receive side ≈ 2 µs (Fig. 7)
//   - interrupt latency "about 20 µs" of the message latency (§3.2b)
//   - 0-byte one-way latency 36 µs; asymptotic bandwidth ≈ 600 Mb/s at
//     MTU 9000 and ≈ 450 Mb/s at MTU 1500 (§4, §5)
//
// Everything else (PCI burst efficiency, memory-copy bandwidth, switch
// latency) uses period-typical values chosen so the end-to-end figures
// land in the paper's regime; see EXPERIMENTS.md for the paper-vs-measured
// comparison.
package model

import "repro/internal/sim"

// TransferTime returns how long moving n bytes takes at rate bytes/second,
// rounded up to a whole nanosecond.
func TransferTime(n int, bytesPerSec int64) sim.Time {
	if n <= 0 {
		return 0
	}
	if bytesPerSec <= 0 {
		panic("model: nonpositive bandwidth")
	}
	t := (int64(n)*1_000_000_000 + bytesPerSec - 1) / bytesPerSec
	return sim.Time(t)
}

// MbitPerSec converts a rate in megabits/second to bytes/second.
func MbitPerSec(mbps float64) int64 { return int64(mbps * 1e6 / 8) }

// MBPerSec converts a rate in megabytes/second to bytes/second.
func MBPerSec(mbs float64) int64 { return int64(mbs * 1e6) }

// Host describes the per-node processor and OS costs.
type Host struct {
	// SyscallEnter and SyscallExit are the two halves of the ≈0.65 µs
	// user↔kernel switch the paper measures on a 1.5 GHz PC (§3.1).
	SyscallEnter sim.Time
	SyscallExit  sim.Time

	// InterruptDispatch is the time from the NIC asserting the PCI
	// interrupt line to the driver ISR's first instruction: APIC/PIC
	// acknowledge, vector dispatch, register save, IRQ handler entry.
	// Together with the ISR body it makes up the "about 20 µs" interrupt
	// latency of §3.2b.
	InterruptDispatch sim.Time

	// BottomHalfDispatch is the cost of scheduling and entering the
	// bottom-half (softirq) context after an ISR returns (Fig. 8a path).
	BottomHalfDispatch sim.Time

	// SchedulerWake is the cost of the scheduler waking a process blocked
	// in a receive call and switching to it. CLIC deliberately keeps the
	// full scheduler in the path (§3.2a).
	SchedulerWake sim.Time

	// MemCopyBandwidth is the CPU's sustained memcpy rate; 2003-era
	// PC133/DDR systems copy at roughly 350-500 MB/s.
	MemCopyBandwidth int64

	// ChecksumBandwidth is the rate at which the CPU can run the Internet
	// checksum over a buffer (read-only pass, faster than a copy).
	ChecksumBandwidth int64

	// MemBusBandwidth is the shared front-side/memory bus rate. Both CPU
	// copies and device DMA occupy it, which is how "a copy uses system
	// resources such as the memory and PCI buses ... having influence in
	// the global performance" (§2) — the mechanism behind the 0-copy vs
	// 1-copy gap of Fig. 4.
	MemBusBandwidth int64

	// CPUs is the number of processors per node; the paper's testbed is
	// uniprocessor (the default, 1), but CLIC's re-entrancy is "very
	// interesting for clusters of multiprocessors" (§5), so SMP nodes
	// are modelled.
	CPUs int
}

// PCI describes the 33 MHz / 32-bit PCI bus of the testbed (raw 132 MB/s).
type PCI struct {
	// DataBandwidth is the sustained burst data rate a bus-master NIC
	// achieves; arbitration, target wait-states and burst-length limits
	// keep real NICs well under the 132 MB/s raw figure.
	DataBandwidth int64

	// TransactionSetup is the fixed per-DMA-transaction overhead
	// (arbitration + address phase + turnaround).
	TransactionSetup sim.Time

	// DescriptorTouch is the cost of the NIC fetching or writing back one
	// DMA descriptor across the bus.
	DescriptorTouch sim.Time

	// MMIOWrite is the CPU cost of one posted write to a NIC register
	// (ringing the doorbell).
	MMIOWrite sim.Time

	// PIOBandwidth is the rate of programmed-I/O transfers, where the CPU
	// issues every bus cycle itself (Fig. 1 paths 1 and 4); far below the
	// DMA burst rate.
	PIOBandwidth int64
}

// NIC describes a Gigabit Ethernet adapter's configurable behaviour.
type NIC struct {
	// MTU is the link MTU: 1500 (standard Ethernet) or 9000 (jumbo, §2).
	MTU int

	// CoalesceUsecs and CoalesceFrames control interrupt coalescing: the
	// NIC raises an interrupt once CoalesceFrames have arrived or
	// CoalesceUsecs µs have elapsed since the first unannounced frame,
	// whichever comes first (§2). CoalesceFrames = 1 disables coalescing.
	CoalesceUsecs  int
	CoalesceFrames int

	// TxRing and RxRing are descriptor ring sizes; a full RxRing drops.
	TxRing int
	RxRing int

	// ProcessFrame is the adapter's internal per-frame handling time
	// (firmware/MAC work), charged on the NIC's own engine, not the CPU.
	ProcessFrame sim.Time

	// BufferBytes is the adapter's on-board transmit buffer: the DMA
	// engine fills it while the MAC drains it to the wire, so DMA and
	// transmission pipeline across frames up to this depth.
	BufferBytes int

	// FragOffload enables NIC-side fragmentation/reassembly (§2; the
	// paper's authors decline it to keep the stock driver, and flag it as
	// future work — we implement it for the E9 ablation). With it on, the
	// host hands the NIC packets larger than the MTU and the NIC splits
	// them, and conversely coalesces on receive.
	FragOffload bool

	// FragOffloadMax is the largest super-packet the host may hand the
	// NIC when FragOffload is on.
	FragOffloadMax int

	// FragTimeout bounds how long the receive side keeps a partial
	// offload reassembly waiting for missing fragments. A lost fragment
	// otherwise leaks the partial state forever: the sender's go-back-N
	// replays the whole super-packet under a fresh fragment id, so the
	// old entry can never complete. Zero means 5 ms.
	FragTimeout sim.Time
}

// Link describes the Gigabit Ethernet wire and switch.
type Link struct {
	// BitsPerSec is the line rate (1 Gb/s).
	BitsPerSec int64

	// PropagationDelay is cable propagation (a few metres of copper).
	PropagationDelay sim.Time

	// SwitchLatency is the store-and-forward switch's fixed forwarding
	// decision time per frame, in addition to full-frame reception.
	SwitchLatency sim.Time

	// SwitchQueueFrames is the per-output-port queue capacity; overflow
	// drops frames (the "finite buffering" of §1).
	SwitchQueueFrames int

	// LossRate injects random frame loss on every link, in [0,1) — the
	// fault-injection knob for exercising the reliability machinery in
	// the simulator ("limited fault-handling" networks, §1). Zero (the
	// default) models a healthy switched LAN.
	LossRate float64

	// DupRate injects duplicate delivery: a frame arrives twice, as a
	// misbehaving switch or a spanning-tree transient would produce.
	DupRate float64

	// ReorderRate delays individual frames by a random extra amount up to
	// ReorderSpan, letting later frames overtake them.
	ReorderRate float64

	// ReorderSpan bounds the extra delivery delay of a reordered frame.
	// Zero means the ether layer's default (50 µs).
	ReorderSpan sim.Time

	// CorruptRate injects payload corruption. A corrupted frame fails the
	// receiver's FCS check and is discarded by the MAC, so at the protocol
	// level it behaves as a loss — but it is counted separately.
	CorruptRate float64
}

// Driver describes the unmodified NIC driver both stacks share — CLIC's
// design requirement is precisely that "the drivers of the NICs could not
// be modified" (§2), so TCP/IP and CLIC pay the same driver costs.
type Driver struct {
	// Send is the transmit-path cost: validate, map the scatter/gather
	// list, post the descriptor (≈4 µs, Fig. 7).
	Send sim.Time

	// RxFixed and RxPerByteBW parameterise the receive ISR routine of
	// Fig. 8a, which creates the SK_BUFF in system memory and moves the
	// frame out of the NIC's receive area; ≈15 µs at 1400 B.
	RxFixed     sim.Time
	RxPerByteBW int64 // bandwidth of the ISR's data movement, B/s

	// RxDirect is the slimmed ISR of the Fig. 8b improvement, which only
	// acknowledges the ring and calls the protocol module directly (≈5 µs
	// at 1400 B including the module dispatch).
	RxDirect sim.Time
}

// RxISRTime returns the Fig. 8a ISR cost for one frame of n bytes.
func (d *Driver) RxISRTime(n int) sim.Time {
	return d.RxFixed + TransferTime(n, d.RxPerByteBW)
}

// CLIC describes the lightweight protocol's per-stage costs (Fig. 7).
type CLIC struct {
	// ModuleSend is CLIC_MODULE's fixed send-side work: compose the
	// 14-byte Ethernet level-1 header and the 12-byte CLIC header, update
	// the SK_BUFF, look up the driver (≈0.7 µs, Fig. 7).
	ModuleSend sim.Time

	// ModuleRecv is CLIC_MODULE's fixed receive-side work: check the type
	// field in the header, find the waiting process (≈2 µs with the
	// bottom-half dispatch, Fig. 7). The copy to user memory is charged
	// separately at Host.MemCopyBandwidth.
	ModuleRecv sim.Time

	// AckEvery is the cumulative-acknowledgement stride: the receiver
	// returns one CLIC internal ACK packet per AckEvery data frames.
	AckEvery int

	// AckDelay is the receiver's delayed-ack timer: frames not yet
	// covered by a strided ack are acknowledged at most this late, so a
	// lone request/response exchange is not cluttered with an immediate
	// ack on the critical path but the sender's window still clears.
	AckDelay sim.Time

	// Window is the sender's sliding-window size in frames (finite
	// buffering / flow control).
	Window int

	// RetransmitTimeout is the sender's initial retransmission timeout,
	// used until the first RTT sample lands; after that the per-channel
	// estimator (internal/rto) adapts the timeout to SRTT + 4·RTTVAR.
	RetransmitTimeout sim.Time

	// RTOMin and RTOMax clamp the adaptive retransmission timeout. RTOMin
	// must stay above the worst-case strided/delayed-ack latency or clean
	// bulk traffic retransmits spuriously; RTOMax caps the exponential
	// backoff. Zero means the rto package derives them from the initial
	// timeout.
	RTOMin sim.Time
	RTOMax sim.Time

	// MaxRetries bounds consecutive retransmission timeouts without ack
	// progress before the channel is declared failed and senders get an
	// error. Zero retries forever (the paper's CLIC has no failure
	// surface; bounded retries are opt-in for fault experiments).
	MaxRetries int

	// FastRetransmit enables NACK-triggered recovery: a receiver whose
	// sequence gap persists past NackDelay reports it with a TypeNack
	// internal packet and the sender goes back immediately instead of
	// waiting out the timer. The timer remains the backstop.
	FastRetransmit bool

	// NackDelay is how long a gap must persist before it is reported:
	// long enough for the benign reordering of bonded links to fill
	// itself, far shorter than the retransmission timeout.
	NackDelay sim.Time

	// SysBufBytes is the kernel buffering available for early or
	// unexpected packets per node.
	SysBufBytes int

	// IntraNodePerByte is the bandwidth of the same-node fast path (one
	// kernel copy user→user).
	IntraNodeLatency sim.Time
}

// TCP describes the comparator stack's per-layer costs. The structure of
// the stack (headers, copies, acks, fragmentation) lives in
// internal/tcpip; these are the CPU constants.
type TCP struct {
	// SocketSend/SocketRecv: sockets-layer cost per call (locking, fd
	// lookup, sockbuf management).
	SocketSend sim.Time
	SocketRecv sim.Time

	// TCPSegment is the TCP-layer cost per segment on each side (header
	// build/parse, state machine, timers).
	TCPSegment sim.Time

	// IPPacket is the IP-layer cost per packet on each side (header,
	// routing decision even for on-link hosts, fragmentation bookkeeping).
	IPPacket sim.Time

	// DriverSend / DriverRx reuse the same NIC driver costs as CLIC; the
	// TCP/IP receive path also runs through bottom halves.

	// SkbPerByteBW models the 2.4-kernel per-byte buffer management the
	// lightweight protocols shed: sk_buff shuffling, split
	// checksum/copy passes and socket-buffer accounting, charged as one
	// memory pass on the receive path.
	SkbPerByteBW int64

	// AckEvery is the delayed-ack stride (standard TCP acks every 2nd
	// segment).
	AckEvery int

	// AckDelay is the delayed-ack timer: a lone unacknowledged segment
	// is acknowledged at most this late. Interacting with slow start,
	// this is part of why TCP needs ~16 KB to reach half bandwidth (§4).
	AckDelay sim.Time

	// WindowBytes is the offered window (sockbuf) in bytes.
	WindowBytes int

	// InitialCwnd is the slow-start initial congestion window in
	// segments; the congestion window also collapses back to this after
	// an idle period (RFC 2861 restart), which is what stretches TCP's
	// rise to half bandwidth out to ~16 KB messages (§4, Fig. 5).
	InitialCwnd int
}

// VIA describes the user-level comparator (§3.2): no syscalls, no
// interrupts, polling completion, no reliability layer.
type VIA struct {
	// DescriptorPost is the user-mode cost to build a descriptor and ring
	// the doorbell (one MMIO write is added on top).
	DescriptorPost sim.Time

	// PollCheck is one poll of the completion queue in host memory.
	PollCheck sim.Time

	// PollInterval is the spin-loop granularity: how much CPU the poller
	// burns between completion-queue checks before another runnable
	// process can take a turn. Under a fair scheduler two runnable
	// processes alternate, so this matches the compute-side quantum —
	// giving a spinner roughly half the CPU, which is what a real
	// spin-wait costs a multiprogrammed node (§3.2b).
	PollInterval sim.Time

	// DoorbellMMIO reuses PCI.MMIOWrite.
}

// GAMMA describes the kernel-level comparator (§3.2, §5): lightweight
// traps that skip the scheduler on return, and a modified driver whose ISR
// delivers straight to user space (no bottom halves).
type GAMMA struct {
	// LightweightTrap is the enter+leave cost of GAMMA's trap, cheaper
	// than a full syscall because the return path skips the scheduler.
	LightweightTrap sim.Time

	// ModuleSend / DriverSend: GAMMA's send path with its modified,
	// NIC-specific driver.
	ModuleSend sim.Time
	DriverSend sim.Time

	// DriverRxDirect: GAMMA's ISR copies straight to the user buffer.
	DriverRxDirect sim.Time
}

// MPI describes the message layer built on CLIC or TCP (Fig. 6).
type MPI struct {
	// PerCall is the MPI library's per-call overhead (argument checking,
	// request bookkeeping, datatype handling for contiguous data).
	PerCall sim.Time

	// EagerLimit is the switchover from eager to rendezvous protocol.
	EagerLimit int
}

// PVM describes the PVM comparator layered on TCP (Fig. 6).
type PVM struct {
	// PerCall is pvmlib per-call overhead (message tags, task ids).
	PerCall sim.Time

	// PackBandwidth is the rate of pvm_pkbyte-style packing into the
	// send buffer — an extra copy TCP-based PVM always pays.
	PackBandwidth int64
}

// Params aggregates the whole cost model.
type Params struct {
	Host   Host
	PCI    PCI
	NIC    NIC
	Link   Link
	Driver Driver
	CLIC   CLIC
	TCP    TCP
	VIA    VIA
	GAMMA  GAMMA
	MPI    MPI
	PVM    PVM
}

const us = sim.Microsecond

// Default returns the calibrated cost model for the paper's testbed.
func Default() Params {
	return Params{
		Host: Host{
			SyscallEnter:       325,           // ½ of the 0.65 µs round trip
			SyscallExit:        325,           // other half
			InterruptDispatch:  8 * us,        // IRQ ack + vector + entry
			BottomHalfDispatch: 1 * us,        // softirq schedule + entry
			SchedulerWake:      2 * us,        // wake_up + context switch
			MemCopyBandwidth:   MBPerSec(400), // PC133-era memcpy
			ChecksumBandwidth:  MBPerSec(800), // read-only csum pass
			MemBusBandwidth:    MBPerSec(600), // shared memory bus
			CPUs:               1,             // the paper's UP testbed
		},
		PCI: PCI{
			DataBandwidth:    MBPerSec(88), // sustained burst on 33/32 PCI
			TransactionSetup: 1200,         // arbitration + address phase
			DescriptorTouch:  700,          // one descriptor fetch/writeback
			MMIOWrite:        300,          // posted doorbell write
			PIOBandwidth:     MBPerSec(35), // CPU-driven bus cycles
		},
		NIC: NIC{
			MTU:            1500,
			CoalesceUsecs:  40,
			CoalesceFrames: 10,
			TxRing:         256,
			RxRing:         256,
			ProcessFrame:   800,
			BufferBytes:    64 << 10,
			FragOffload:    false,
			FragOffloadMax: 60000,
			FragTimeout:    5 * sim.Millisecond,
		},
		Link: Link{
			BitsPerSec:        1_000_000_000,
			PropagationDelay:  200, // ~40 m of cable + PHY
			SwitchLatency:     2 * us,
			SwitchQueueFrames: 512,
		},
		Driver: Driver{
			Send:        4 * us, // Fig. 7: 4 µs
			RxFixed:     4 * us, // Fig. 8a routine, fixed part
			RxPerByteBW: MBPerSec(145),
			RxDirect:    1 * us, // Fig. 8b slim ISR (+dispatch)
		},
		CLIC: CLIC{
			ModuleSend:        700,    // Fig. 7: 0.7 µs
			ModuleRecv:        2 * us, // Fig. 7: BH + module ≈ 2 µs
			AckEvery:          8,
			AckDelay:          150 * us,
			Window:            32,
			RetransmitTimeout: 5 * sim.Millisecond,
			// RTOMin matches the initial timeout: bulk traffic's strided
			// acks arrive up to ~5 ms after a frame's push (window-wait
			// queuing inflates push→ack latency), so a lower floor fires
			// spurious timeouts on a clean fabric. The estimator therefore
			// only ever raises the timeout (SRTT inflation, backoff).
			RTOMin:           5 * sim.Millisecond,
			RTOMax:           250 * sim.Millisecond,
			MaxRetries:       0, // unlimited: loss sweeps must converge
			FastRetransmit:   true,
			NackDelay:        100 * us,
			SysBufBytes:      1 << 22,
			IntraNodeLatency: 2 * us,
		},
		TCP: TCP{
			SocketSend:   4 * us,
			SocketRecv:   4 * us,
			TCPSegment:   12 * us,
			IPPacket:     4 * us,
			SkbPerByteBW: MBPerSec(100),
			AckEvery:     2,
			AckDelay:     150 * us,
			WindowBytes:  128 << 10,
			InitialCwnd:  1,
		},
		VIA: VIA{
			DescriptorPost: 1 * us,
			PollCheck:      300,
			PollInterval:   10 * us,
		},
		GAMMA: GAMMA{
			LightweightTrap: 350,
			ModuleSend:      500,
			DriverSend:      2 * us,
			DriverRxDirect:  3 * us,
		},
		MPI: MPI{
			PerCall:    2 * us,
			EagerLimit: 16 << 10,
		},
		PVM: PVM{
			PerCall:       4 * us,
			PackBandwidth: MBPerSec(300),
		},
	}
}

// CopyTime returns the CPU time to copy n bytes at the host's memcpy rate.
func (h *Host) CopyTime(n int) sim.Time { return TransferTime(n, h.MemCopyBandwidth) }

// ChecksumTime returns the CPU time to checksum n bytes.
func (h *Host) ChecksumTime(n int) sim.Time { return TransferTime(n, h.ChecksumBandwidth) }

// DMATime returns the bus time for one DMA transaction moving n bytes,
// including the fixed transaction setup.
func (p *PCI) DMATime(n int) sim.Time {
	return p.TransactionSetup + TransferTime(n, p.DataBandwidth)
}
