// Package nic models a Gigabit Ethernet adapter of the paper's testbed
// class (SMC9462TX / 3C996-T): bus-master scatter/gather DMA, descriptor
// rings, interrupt coalescing, jumbo frames, and — as the E9 ablation —
// the NIC-side fragmentation offload the paper describes in §2 and defers
// to future work.
package nic

import (
	"fmt"
	"sort"

	"repro/internal/ether"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TxMode says how a frame's payload reaches the adapter (Fig. 1).
type TxMode int

// Transmit modes.
const (
	// TxDMA: the NIC pulls the data itself with bus-master DMA, from user
	// pages (path 2, 0-copy) or a kernel buffer (path 3).
	TxDMA TxMode = iota

	// TxPreloaded: the CPU already pushed the data into the NIC's output
	// buffer with programmed I/O (paths 1 and 4); no DMA is needed.
	TxPreloaded
)

// TxReq is one transmit posting from the driver.
type TxReq struct {
	Frame *ether.Frame
	Mode  TxMode
}

// NIC is one adapter instance.
type NIC struct {
	Host *hw.Host
	Name string
	MAC  ether.MAC
	P    model.NIC // per-adapter copy, mutable before the sim starts

	link *ether.Link

	txQ        *sim.Queue[*TxReq]
	txWireQ    *sim.Queue[*ether.Frame]
	txInFlight int
	txBufUsed  int
	txBufFree  *sim.Signal

	rxQ        *sim.Queue[*ether.Frame]
	rxRingUsed int
	completed  []*ether.Frame
	sinceIRQ   int
	lastIRQ    sim.Time
	coalesceEv *sim.Event
	raiseIRQ   func()

	// TxFree is notified each time a transmit-ring slot frees; the
	// protocol's deferred sender waits on it (§3.1's "later, when data
	// can be sent").
	TxFree *sim.Signal

	fragSeq uint64
	fragBuf map[fragKey]*fragEntry

	// Counters, registered in the host's telemetry registry under
	// nic_* with node/nic labels.
	TxFrames     telemetry.Counter
	TxPosts      telemetry.Counter // descriptor postings (doorbell rings)
	RxFrames     telemetry.Counter
	RxDrops      telemetry.Counter
	RxFiltered   telemetry.Counter
	RxOversize   telemetry.Counter
	IRQsFired    telemetry.Counter
	IRQCoalesced telemetry.Counter // frames whose interrupt was deferred into a coalescing window

	// RxReasmEvictions counts partial offload reassemblies discarded
	// because a missing fragment never arrived within FragTimeout.
	RxReasmEvictions telemetry.Counter
}

// fragKey identifies one in-progress offload reassembly. Keying by the
// sender's MAC as well as the fragment id is what keeps two offload
// senders' interleaved fragment streams apart: fragment ids are only
// unique per transmitting adapter.
type fragKey struct {
	src ether.MAC
	id  uint64
}

// fragEntry is one partial reassembly: the fragments seen so far plus
// the arrival time of the first, which starts the eviction clock.
type fragEntry struct {
	parts   []*ether.Frame
	firstAt sim.Time
}

// New creates an adapter on host with the given MAC, attached to the A
// side of link, and starts its transmit and receive engines.
func New(h *hw.Host, name string, mac ether.MAC, p model.NIC, link *ether.Link) *NIC {
	n := &NIC{
		Host:      h,
		Name:      name,
		MAC:       mac,
		P:         p,
		link:      link,
		txQ:       sim.NewQueue[*TxReq](name + ":txq"),
		txWireQ:   sim.NewQueue[*ether.Frame](name + ":txwire"),
		txBufFree: sim.NewSignal(name + ":txbuf"),
		rxQ:       sim.NewQueue[*ether.Frame](name + ":rxq"),
		TxFree:    sim.NewSignal(name + ":txfree"),
		lastIRQ:   -1 << 60,
		fragBuf:   map[fragKey]*fragEntry{},
	}
	link.AttachA(n)
	labels := []telemetry.Label{telemetry.L("node", h.Name), telemetry.L("nic", name)}
	h.Tel.RegisterCounter("nic_tx_frames_total", "frames serialised onto the wire", &n.TxFrames, labels...)
	h.Tel.RegisterCounter("nic_tx_posts_total", "transmit descriptors posted (DMA doorbells)", &n.TxPosts, labels...)
	h.Tel.RegisterCounter("nic_rx_frames_total", "frames DMA'd to system memory", &n.RxFrames, labels...)
	h.Tel.RegisterCounter("nic_rx_ring_drops_total", "frames dropped on a full receive ring", &n.RxDrops, labels...)
	h.Tel.RegisterCounter("nic_rx_filtered_total", "frames discarded by the MAC destination filter", &n.RxFiltered, labels...)
	h.Tel.RegisterCounter("nic_rx_oversize_total", "giant frames discarded at the MAC", &n.RxOversize, labels...)
	h.Tel.RegisterCounter("nic_irqs_total", "interrupts raised to the kernel", &n.IRQsFired, labels...)
	h.Tel.RegisterCounter("nic_irqs_coalesced_total", "frame arrivals absorbed into a coalescing window instead of raising an interrupt", &n.IRQCoalesced, labels...)
	h.Tel.RegisterCounter("nic_rx_reassembly_evictions_total", "partial offload reassemblies evicted after FragTimeout", &n.RxReasmEvictions, labels...)
	h.Tel.GaugeFunc("nic_rx_ring_used", "receive-ring slots holding undrained frames",
		func() float64 { return float64(n.rxRingUsed) }, labels...)
	h.Tel.GaugeFunc("nic_tx_ring_inflight", "transmit-ring descriptors awaiting DMA completion",
		func() float64 { return float64(n.txInFlight) }, labels...)
	h.Eng.Go(name+":txdma", n.txEngine)
	h.Eng.Go(name+":txwire", n.txWire)
	h.Eng.Go(name+":rxeng", n.rxEngine)
	return n
}

// SetIRQ wires the adapter's interrupt output to the kernel (typically
// IRQ.Raise). It must be set before traffic flows.
func (n *NIC) SetIRQ(raise func()) { n.raiseIRQ = raise }

// Link returns the cable the adapter is attached to (A side), so tests can
// install fault injection or frame filters on a specific node's uplink.
func (n *NIC) Link() *ether.Link { return n.link }

// MaxPost returns the largest payload the driver may hand the adapter in
// one frame: the MTU, or the offload maximum when fragmentation offload
// is enabled (§2).
func (n *NIC) MaxPost() int {
	if n.P.FragOffload {
		return n.P.FragOffloadMax
	}
	return n.P.MTU
}

// CanTx reports whether the transmit ring has room; when it is full the
// driver tells CLIC_MODULE "it is not possible to send the data" and the
// module falls back to buffering in system memory (§3.1).
func (n *NIC) CanTx() bool { return n.txInFlight < n.P.TxRing }

// PostTx queues one transmit request and rings the doorbell. The caller
// (driver code) has already charged its own CPU costs; PostTx charges only
// the MMIO write. Call CanTx first; posting to a full ring panics.
func (n *NIC) PostTx(p *sim.Proc, pri int, req *TxReq) {
	if !n.CanTx() {
		panic(fmt.Sprintf("nic %s: PostTx on full ring", n.Name))
	}
	if len(req.Frame.Payload) > n.MaxPost() {
		panic(fmt.Sprintf("nic %s: frame payload %d exceeds max post %d",
			n.Name, len(req.Frame.Payload), n.MaxPost()))
	}
	n.txInFlight++
	n.TxPosts.Inc()
	n.Host.MMIOWrite(p, pri)
	n.txQ.Put(req)
}

// txEngine is the DMA stage: it pulls each posted frame into the
// adapter's transmit buffer. It pipelines with txWire, which drains the
// buffer to the wire — so the DMA of frame n+1 overlaps the transmission
// of frame n, as on real bus-master adapters.
func (n *NIC) txEngine(p *sim.Proc) {
	for {
		req := n.txQ.Get(p)
		f := req.Frame
		need := ether.HeaderBytes + len(f.Payload)
		for n.txBufUsed > 0 && n.txBufUsed+need > n.P.BufferBytes {
			n.txBufFree.Wait(p)
		}
		if req.Mode == TxDMA {
			// One scatter/gather transaction pulls header + payload.
			t0 := p.Now()
			n.Host.DMA(p, need)
			if f.FlightID != 0 {
				n.Host.FR.Span(n.Host.Name, f.FlightID, trace.SpanTxDMA, int64(t0), int64(p.Now()))
			}
		}
		n.txBufUsed += need
		// The descriptor is complete once the data is on board.
		n.txInFlight--
		n.TxFree.Broadcast()
		n.txWireQ.Put(f)
	}
}

// txWire is the MAC stage: it serialises buffered frames onto the link.
func (n *NIC) txWire(p *sim.Proc) {
	for {
		f := n.txWireQ.Get(p)
		if len(f.Payload) > n.P.MTU {
			n.txFragmented(p, f)
		} else {
			p.Sleep(n.P.ProcessFrame)
			n.TxFrames.Inc()
			n.link.SendFromA(p, f)
		}
		n.txBufUsed -= ether.HeaderBytes + len(f.Payload)
		n.txBufFree.Broadcast()
	}
}

// txFragmented implements the offload's transmit half: split a
// super-packet into MTU-sized wire frames (§2: "the NIC divides the
// packets according to the MTU size to send them").
func (n *NIC) txFragmented(p *sim.Proc, f *ether.Frame) {
	n.fragSeq++
	id := n.fragSeq
	total := (len(f.Payload) + n.P.MTU - 1) / n.P.MTU
	for i := 0; i < total; i++ {
		lo := i * n.P.MTU
		hi := lo + n.P.MTU
		if hi > len(f.Payload) {
			hi = len(f.Payload)
		}
		part := &ether.Frame{
			Dst: f.Dst, Src: f.Src, Type: f.Type,
			Payload:   f.Payload[lo:hi],
			FragID:    id,
			FragIdx:   i,
			FragTotal: total,
		}
		p.Sleep(n.P.ProcessFrame)
		n.TxFrames.Inc()
		n.link.SendFromA(p, part)
	}
}

// DeliverFrame implements ether.Endpoint: a frame has fully arrived from
// the wire. Runs in callback context; drops when the receive ring is full.
// Unicast frames addressed to another station (switch flooding before MAC
// learning) are discarded by the MAC's hardware destination filter;
// broadcast and multicast pass (group filtering is the protocol's job).
func (n *NIC) DeliverFrame(f *ether.Frame) {
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() && f.Dst != n.MAC {
		n.RxFiltered.Inc()
		return
	}
	if f.FlightID != 0 {
		// The frame reached its adapter: the wire span that opened at the
		// sender's link closes here, whatever happens to the frame next.
		n.Host.FR.End(n.Host.Name, f.FlightID, trace.SpanWire, int64(n.Host.Eng.Now()))
	}
	if len(f.Payload) > n.P.MTU {
		// An oversize (giant) frame: a standard-MTU adapter discards a
		// jumbo frame at the MAC — the §2 interoperability hazard ("both
		// communicating computers have to use Jumbo frames").
		n.RxOversize.Inc()
		n.flightDrop(f)
		return
	}
	if n.rxRingUsed+n.rxQ.Len() >= n.P.RxRing {
		n.RxDrops.Inc()
		n.flightDrop(f)
		return
	}
	n.rxQ.Put(f)
}

// flightDrop journals a receive-side frame drop (oversize or ring-full).
func (n *NIC) flightDrop(f *ether.Frame) {
	if f.FlightID != 0 {
		n.Host.FR.Point(n.Host.Name, f.FlightID, trace.PointDrop,
			int64(n.Host.Eng.Now()), int64(len(f.Payload)))
	}
}

func (n *NIC) rxEngine(p *sim.Proc) {
	for {
		f := n.rxQ.Get(p)
		p.Sleep(n.P.ProcessFrame)
		if f.FragTotal > 1 {
			if full := n.reassemble(p, f); full != nil {
				n.dmaToHost(p, full)
			}
			continue
		}
		n.dmaToHost(p, f)
	}
}

// fragTimeout returns the eviction deadline for a partial reassembly.
func (n *NIC) fragTimeout() sim.Time {
	if n.P.FragTimeout > 0 {
		return n.P.FragTimeout
	}
	return 5 * sim.Millisecond
}

// reassemble implements the offload's receive half ("it also assembles
// the received packets to build the packet that has to be sent to the
// application", §2). It returns the rebuilt super-frame once every
// fragment is present, else nil. Reassemblies are keyed by (Src, FragID)
// so interleaved fragment streams from different senders stay apart, and
// a partial entry whose missing fragment never arrives is evicted after
// FragTimeout instead of leaking until the sim ends.
func (n *NIC) reassemble(p *sim.Proc, f *ether.Frame) *ether.Frame {
	key := fragKey{src: f.Src, id: f.FragID}
	e := n.fragBuf[key]
	if e == nil {
		e = &fragEntry{firstAt: p.Now()}
		n.fragBuf[key] = e
		p.Engine().After(n.fragTimeout(), n.Name+":reasm-evict", func() {
			// Identity check: a later reassembly may reuse the key after
			// this one completed; evict only the entry we armed for.
			if n.fragBuf[key] == e {
				delete(n.fragBuf, key)
				n.RxReasmEvictions.Inc()
			}
		})
	}
	for _, part := range e.parts {
		if part.FragIdx == f.FragIdx {
			return nil // duplicate fragment (switch flooding, replay)
		}
	}
	e.parts = append(e.parts, f)
	if len(e.parts) < f.FragTotal {
		return nil
	}
	delete(n.fragBuf, key)
	// Offsets come from the cumulative sizes of the sender's fragments,
	// not this adapter's MTU stride: with asymmetric MTUs the sender's
	// cut points are what determine where each piece belongs.
	sort.Slice(e.parts, func(i, j int) bool { return e.parts[i].FragIdx < e.parts[j].FragIdx })
	size := 0
	for _, part := range e.parts {
		size += len(part.Payload)
	}
	payload := make([]byte, 0, size)
	for _, part := range e.parts {
		payload = append(payload, part.Payload...)
	}
	return &ether.Frame{Dst: f.Dst, Src: f.Src, Type: f.Type, Payload: payload}
}

// dmaToHost moves a received frame into the host's receive-ring buffers in
// system memory and runs the interrupt-coalescing decision.
func (n *NIC) dmaToHost(p *sim.Proc, f *ether.Frame) {
	t0 := p.Now()
	n.Host.DMA(p, ether.HeaderBytes+len(f.Payload))
	n.RxFrames.Inc()
	n.rxRingUsed++
	n.completed = append(n.completed, f)
	if f.FlightID != 0 {
		n.Host.FR.Span(n.Host.Name, f.FlightID, trace.SpanRxDMA, int64(t0), int64(p.Now()))
	}
	n.sinceIRQ++
	// Adaptive coalescing ("the drivers of present NICs usually allow the
	// dynamic adjustment of time intervals in coalesced interrupts", §2):
	// the interrupt rate is capped at one per CoalesceUsecs / per
	// CoalesceFrames, but a frame arriving after a quiet period is
	// announced immediately, so sparse traffic (a latency ping) pays no
	// coalescing delay.
	now := p.Now()
	window := sim.Time(n.P.CoalesceUsecs) * sim.Microsecond
	if n.P.CoalesceFrames <= 1 || n.sinceIRQ >= n.P.CoalesceFrames || now-n.lastIRQ >= window {
		n.fireIRQ(now)
		return
	}
	n.IRQCoalesced.Inc()
	if n.coalesceEv == nil {
		n.coalesceEv = p.Engine().At(n.lastIRQ+window, n.Name+":coalesce",
			func() {
				n.coalesceEv = nil
				if n.sinceIRQ > 0 {
					// The coalescing window expired with frames parked:
					// journal the flush with the batch size it announces.
					n.Host.FR.Point(n.Host.Name, 0, trace.PointCoalesceFlush,
						int64(n.Host.Eng.Now()), int64(n.sinceIRQ))
					n.fireIRQ(n.Host.Eng.Now())
				}
			})
	}
}

func (n *NIC) fireIRQ(now sim.Time) {
	n.sinceIRQ = 0
	n.lastIRQ = now
	if n.coalesceEv != nil {
		n.coalesceEv.Cancel()
		n.coalesceEv = nil
	}
	n.IRQsFired.Inc()
	if n.raiseIRQ == nil {
		panic("nic " + n.Name + ": IRQ fired with no handler wired")
	}
	n.raiseIRQ()
}

// DrainCompleted hands the ISR every frame that has been DMA'd to system
// memory since the last drain, freeing their ring slots. Called from
// interrupt context ("frequently it is not necessary to attend one
// interrupt per packet because when the routine that transfers the packets
// is executed, it moves all the pending packets", §3.2b).
func (n *NIC) DrainCompleted() []*ether.Frame {
	out := n.completed
	n.completed = nil
	n.rxRingUsed -= len(out)
	return out
}
