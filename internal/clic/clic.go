// Package clic implements the paper's contribution: the CLIC lightweight
// communication protocol (§3). CLIC_MODULE lives in the simulated OS
// kernel and replaces the TCP and IP layers with a reliable transport that
// interfaces directly with the Ethernet level-1 data-link layer and the
// unmodified NIC driver.
//
// The communication path follows Fig. 3 of the paper:
//
//	send:  syscall → CLIC_MODULE (headers, SK_BUFF) → driver → NIC
//	       scatter/gather DMA from user memory (0-copy, Fig. 1 path 2)
//	recv:  NIC DMA to system memory → coalesced interrupt → driver ISR
//	       → bottom halves → CLIC_MODULE → copy to user memory → wake
//
// The module provides the features §5 enumerates: reliable delivery with
// acknowledgements, send with confirmation of reception, synchronous and
// asynchronous primitives, remote write, Ethernet broadcast/multicast,
// intra-node messaging, channel bonding across several NICs, and a
// kernel-function packet type. The Fig. 8b direct-call receive improvement
// and the Fig. 1 path ablations are selectable through Options.
package clic

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// NodeID identifies a cluster node.
type NodeID = int

// RxMode selects the receive dispatch path (Fig. 8).
type RxMode int

// Receive dispatch modes.
const (
	// RxBottomHalf is the implemented path (Fig. 8a): the driver ISR
	// builds SK_BUFFs and defers to CLIC_MODULE through bottom halves.
	RxBottomHalf RxMode = iota

	// RxDirectCall is the proposed improvement (Fig. 8b): the driver
	// calls CLIC_MODULE directly from the ISR, cutting the receiver
	// driver stage from ~15 µs to ~5 µs for a 1400 B packet (Fig. 7b).
	RxDirectCall
)

// String names an RxMode as the -rx flags and the rxmode metric label
// spell it.
func (m RxMode) String() string {
	switch m {
	case RxBottomHalf:
		return "bh"
	case RxDirectCall:
		return "direct"
	}
	return fmt.Sprintf("RxMode(%d)", int(m))
}

// ParseRxMode is String's inverse.
func ParseRxMode(s string) (RxMode, error) {
	for _, m := range []RxMode{RxBottomHalf, RxDirectCall} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown receive mode %q (want bh or direct)", s)
}

// SendPath selects how data reaches the NIC (Fig. 1).
type SendPath int

// Send paths, numbered as in Fig. 1.
const (
	// Path1PIO: the CPU writes user data straight into the NIC buffer
	// with programmed I/O.
	Path1PIO SendPath = 1

	// Path2ZeroCopy: the NIC pulls user data itself with scatter/gather
	// DMA — the Gigabit Ethernet CLIC default ("0-copy").
	Path2ZeroCopy SendPath = 2

	// Path3OneCopy: one CPU copy into a kernel buffer, then DMA — the
	// "1-copy" configuration of Fig. 4.
	Path3OneCopy SendPath = 3

	// Path4TwoCopy: copy to kernel, then CPU-driven transfer into the NIC
	// output buffer — the Fast Ethernet CLIC's path.
	Path4TwoCopy SendPath = 4
)

// Options configure an endpoint's variant knobs.
type Options struct {
	RxMode   RxMode
	SendPath SendPath
}

// DefaultOptions is the Gigabit Ethernet CLIC configuration of the paper.
func DefaultOptions() Options {
	return Options{RxMode: RxBottomHalf, SendPath: Path2ZeroCopy}
}

// message is a fully reassembled incoming message.
type message struct {
	Src  NodeID
	Port uint16
	Type proto.PacketType
	Data []byte
}

// recvWaiter is a process blocked in Recv.
type recvWaiter struct {
	sig *sim.Signal
	msg *message
}

// port is one CLIC port's receive state.
type port struct {
	pending []*message // arrived, still in system memory
	waiters []*recvWaiter
}

// Stats counts endpoint activity for the experiments. The fields are
// registered in the host's telemetry registry under clic_* with
// node/sendpath/rxmode labels; their accessors keep working as before.
type Stats struct {
	MsgsSent    telemetry.Counter
	MsgsRecv    telemetry.Counter
	BytesSent   telemetry.Counter
	BytesRecv   telemetry.Counter
	FramesSent  telemetry.Counter
	AcksSent    telemetry.Counter
	Retransmits telemetry.Counter
	Deferred    telemetry.Counter
	SysBufDrops telemetry.Counter

	// RTOBackoffs counts timeout-driven retransmission rounds — each one
	// doubles the channel's adaptive RTO. ChannelFailures counts channels
	// declared dead after MaxRetries consecutive timeouts.
	RTOBackoffs     telemetry.Counter
	ChannelFailures telemetry.Counter

	// AckLatency is the distribution of data-frame push → cumulative-ack
	// times, the protocol-level view behind Fig. 7's per-stage table.
	AckLatency *telemetry.Histogram
}

// pathLabel names a SendPath for metric labels.
func pathLabel(p SendPath) string {
	switch p {
	case Path1PIO:
		return "1-pio"
	case Path2ZeroCopy:
		return "2-zero-copy"
	case Path3OneCopy:
		return "3-one-copy"
	case Path4TwoCopy:
		return "4-two-copy"
	}
	return "unknown"
}

// Endpoint is one node's CLIC_MODULE instance.
type Endpoint struct {
	Node NodeID
	K    *kernel.Kernel
	M    *model.Params
	Opt  Options
	S    Stats

	nics   []*nic.NIC
	rrNext int // bonding round-robin cursor

	// resolve maps (destination node, NIC stripe index) to a destination
	// MAC, so bonded configurations stripe receive load across the
	// destination's adapters too; nodeOf is the inverse for any adapter.
	resolve func(NodeID, int) ether.MAC
	nodeOf  func(ether.MAC) (NodeID, bool)

	tx map[NodeID]*txChan
	rx map[NodeID]*rxChan

	// labels is the endpoint's metric label set, extended with a peer
	// label for the per-channel clic_rto_ns gauge.
	labels []telemetry.Label

	ports   map[uint16]*port
	regions map[uint16]*Region
	groups  map[ether.MAC]bool // joined multicast groups

	bcastAsm map[NodeID]*assembly // per-source broadcast reassembly
	bcastSeq relwin.Seq           // this node's broadcast fragment counter

	confirmWait map[confirmKey]*sim.Signal
	kfnHandlers map[uint16]KernelFn
	kfnWait     map[uint32]*kfnCall
	kfnSeq      uint32
	kfnReplyQ   *sim.Queue[kfnOut]

	deferredQ *sim.Queue[*deferredTx]
	ackQ      *sim.Queue[ackReq]
	asyncQ    *sim.Queue[asyncSend]

	sysBufUsed int

	// fr caches the host's flight recorder (nil when disabled) and
	// nodeName the host name, so hot paths avoid the double indirection.
	fr       *flight.Journal
	nodeName string

	// lastFlight is the flight id of the most recent data fragment this
	// endpoint composed; the send syscall span is attributed to it.
	lastFlight uint64
}

type confirmKey struct {
	node NodeID
	seq  relwin.Seq
}

type deferredTx struct {
	n   *nic.NIC
	req *nic.TxReq
}

// New creates a node's CLIC endpoint over the given NICs. resolve maps
// (node id, stripe index) to a destination MAC (striping over the
// destination's NICs for bonded setups); nodeOf is the inverse for any
// NIC of a node. The endpoint registers an ISR per NIC and starts its
// worker processes (deferred transmit, delayed acks, kernel-function
// replies, asynchronous sends).
func New(k *kernel.Kernel, node NodeID, nics []*nic.NIC, opt Options,
	resolve func(NodeID, int) ether.MAC, nodeOf func(ether.MAC) (NodeID, bool)) *Endpoint {
	if len(nics) == 0 {
		panic("clic: endpoint needs at least one NIC")
	}
	ep := &Endpoint{
		Node:        node,
		K:           k,
		M:           k.Host.M,
		Opt:         opt,
		nics:        nics,
		resolve:     resolve,
		nodeOf:      nodeOf,
		tx:          map[NodeID]*txChan{},
		rx:          map[NodeID]*rxChan{},
		ports:       map[uint16]*port{},
		regions:     map[uint16]*Region{},
		groups:      map[ether.MAC]bool{},
		bcastAsm:    map[NodeID]*assembly{},
		confirmWait: map[confirmKey]*sim.Signal{},
		kfnHandlers: map[uint16]KernelFn{},
		kfnWait:     map[uint32]*kfnCall{},
		kfnReplyQ:   sim.NewQueue[kfnOut](fmt.Sprintf("clic%d:kfn-reply", node)),
		deferredQ:   sim.NewQueue[*deferredTx](fmt.Sprintf("clic%d:deferred", node)),
		ackQ:        sim.NewQueue[ackReq](fmt.Sprintf("clic%d:acks", node)),
		asyncQ:      sim.NewQueue[asyncSend](fmt.Sprintf("clic%d:async", node)),
		fr:          k.Host.FR,
		nodeName:    k.Host.Name,
	}
	labels := []telemetry.Label{
		telemetry.L("node", k.Host.Name),
		telemetry.L("sendpath", pathLabel(opt.SendPath)),
		telemetry.L("rxmode", opt.RxMode.String()),
	}
	ep.labels = labels
	tel := k.Host.Tel
	tel.RegisterCounter("clic_msgs_sent_total", "messages sent", &ep.S.MsgsSent, labels...)
	tel.RegisterCounter("clic_msgs_recv_total", "messages delivered", &ep.S.MsgsRecv, labels...)
	tel.RegisterCounter("clic_bytes_sent_total", "payload bytes sent", &ep.S.BytesSent, labels...)
	tel.RegisterCounter("clic_bytes_recv_total", "payload bytes delivered", &ep.S.BytesRecv, labels...)
	tel.RegisterCounter("clic_frames_sent_total", "data fragments pushed to the driver", &ep.S.FramesSent, labels...)
	tel.RegisterCounter("clic_acks_sent_total", "cumulative acknowledgements emitted", &ep.S.AcksSent, labels...)
	tel.RegisterCounter("clic_retransmits_total", "go-back-N frame retransmissions", &ep.S.Retransmits, labels...)
	tel.RegisterCounter("clic_deferred_total", "sends buffered in system memory on a full transmit ring", &ep.S.Deferred, labels...)
	tel.RegisterCounter("clic_sysbuf_drops_total", "frames refused by receiver-side flow control", &ep.S.SysBufDrops, labels...)
	tel.RegisterCounter("clic_rto_backoffs_total", "retransmission-timeout expiries (each doubles the adaptive RTO)", &ep.S.RTOBackoffs, labels...)
	tel.RegisterCounter("clic_channel_failures_total", "channels declared dead after MaxRetries consecutive timeouts", &ep.S.ChannelFailures, labels...)
	tel.GaugeFunc("clic_sysbuf_bytes", "system-memory bytes holding unclaimed messages",
		func() float64 { return float64(ep.sysBufUsed) }, labels...)
	ep.S.AckLatency = tel.Histogram("clic_ack_latency_ns",
		"data-frame push to cumulative-ack latency, simulated ns",
		telemetry.DefLatencyBuckets(), labels...)
	for _, n := range nics {
		ep.wireISR(n)
	}
	k.Host.Eng.Go(fmt.Sprintf("clic%d:deferred-tx", node), ep.deferredWorker)
	k.Host.Eng.Go(fmt.Sprintf("clic%d:kfn-reply", node), ep.kfnReplyWorker)
	k.Host.Eng.Go(fmt.Sprintf("clic%d:ack-worker", node), ep.ackWorker)
	k.Host.Eng.Go(fmt.Sprintf("clic%d:async-send", node), ep.asyncWorker)
	return ep
}

// NICs returns the endpoint's adapters (for tests and stats).
func (ep *Endpoint) NICs() []*nic.NIC { return ep.nics }

func (ep *Endpoint) portState(id uint16) *port {
	pt, ok := ep.ports[id]
	if !ok {
		pt = &port{}
		ep.ports[id] = pt
	}
	return pt
}

// maxFragPayload returns the largest CLIC payload per frame for the NIC
// the next fragment will use.
func (ep *Endpoint) maxFragPayload(n *nic.NIC) int {
	return n.MaxPost() - proto.HeaderBytes
}

// pickNIC returns the adapter for the next frame and its stripe index;
// with several NICs the endpoint stripes round-robin (channel bonding,
// §5).
func (ep *Endpoint) pickNIC() (*nic.NIC, int) {
	idx := ep.rrNext % len(ep.nics)
	ep.rrNext++
	return ep.nics[idx], idx
}

// nicByMAC returns the adapter owning the given source MAC, so a
// retransmission leaves through the same adapter the frame was composed
// for. Falls back to the first adapter for a MAC the endpoint does not
// own (cannot happen for frames it built itself).
func (ep *Endpoint) nicByMAC(mac ether.MAC) *nic.NIC {
	for _, n := range ep.nics {
		if n.MAC == mac {
			return n
		}
	}
	return ep.nics[0]
}

// ChannelRTO returns the current adaptive retransmission timeout of the
// channel to dst (the clic_rto_ns gauge's value, for tests and tools).
func (ep *Endpoint) ChannelRTO(dst NodeID) sim.Time {
	return sim.Time(ep.txChanFor(dst).ctrl.RTO())
}
