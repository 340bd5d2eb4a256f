package clic

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/rto"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// txChan is the transmit side of the reliable channel to one destination
// node: a sliding window of unacknowledged frames plus an adaptive
// retransmission timer (go-back-N with SRTT-tracking backoff, see
// internal/rto) and NACK-triggered fast retransmit.
type txChan struct {
	ep       *Endpoint
	dst      NodeID
	win      *relwin.Sender[*ether.Frame]
	slotFree *sim.Signal
	rto      *sim.Event
	ctrl     *rto.Controller
	lastGoBN sim.Time // last go-back-N, to debounce NACK storms
	failed   bool     // retry budget exhausted; senders get ErrChannelFailed

	// sampleFloor is the Karn's-rule watermark: sequences below it were
	// retransmitted at least once, so their ack latencies are ambiguous
	// and must not feed the RTT estimator.
	sampleFloor relwin.Seq

	// sentAt remembers each in-flight frame's first push time, feeding
	// the clic_ack_latency_ns histogram when the cumulative ack lands.
	sentAt map[relwin.Seq]sim.Time

	// lastProgress is the simulated time the cumulative ack last
	// advanced (channel creation until then); health snapshots expose it
	// and the watchdog's window-stall deadline runs against it.
	lastProgress sim.Time
}

func (ep *Endpoint) txChanFor(dst NodeID) *txChan {
	tc, ok := ep.tx[dst]
	if !ok {
		tc = &txChan{
			ep:       ep,
			dst:      dst,
			win:      relwin.NewSender[*ether.Frame](ep.M.CLIC.Window),
			slotFree: sim.NewSignal(fmt.Sprintf("clic%d->%d:win", ep.Node, dst)),
			ctrl: rto.New(rto.Config{
				Initial:    int64(ep.M.CLIC.RetransmitTimeout),
				Min:        int64(ep.M.CLIC.RTOMin),
				Max:        int64(ep.M.CLIC.RTOMax),
				MaxRetries: ep.M.CLIC.MaxRetries,
			}),
			sentAt:       map[relwin.Seq]sim.Time{},
			lastProgress: ep.K.Host.Eng.Now(),
		}
		labels := append(append([]telemetry.Label{}, ep.labels...),
			telemetry.L("peer", fmt.Sprint(dst)))
		ep.K.Host.Tel.GaugeFunc("clic_rto_ns",
			"current adaptive retransmission timeout for this channel",
			func() float64 { return float64(tc.ctrl.RTO()) }, labels...)
		ep.tx[dst] = tc
	}
	return tc
}

// observeAcked records push→ack latency for every frame the cumulative
// acknowledgement cum covers and forgets their push times. Frames never
// retransmitted (at or above the Karn watermark) also feed the channel's
// RTT estimator.
func (tc *txChan) observeAcked(cum relwin.Seq) {
	now := tc.ep.K.Host.Eng.Now()
	for seq, at := range tc.sentAt {
		if relwin.Before(seq, cum) {
			tc.ep.S.AckLatency.Observe(float64(now - at))
			if !relwin.Before(seq, tc.sampleFloor) {
				tc.ctrl.Observe(int64(now - at))
			}
			delete(tc.sentAt, seq)
		}
	}
}

// armRTO starts the retransmission timer if frames are in flight and it is
// not already running, at the controller's current adaptive timeout.
func (tc *txChan) armRTO() {
	if tc.rto != nil || tc.failed || tc.win.InFlight() == 0 {
		return
	}
	eng := tc.ep.K.Host.Eng
	tc.rto = eng.After(sim.Time(tc.ctrl.RTO()),
		fmt.Sprintf("clic%d->%d:rto", tc.ep.Node, tc.dst), tc.fireRTO)
}

func (tc *txChan) fireRTO() {
	tc.rto = nil
	if tc.win.InFlight() == 0 {
		return
	}
	if tc.ctrl.OnTimeout() {
		tc.fail()
		return
	}
	tc.ep.S.RTOBackoffs.Inc()
	// Channel-level event (frame 0); the per-frame PointRetransmit events
	// goBackN emits next identify which frames the expiry replays.
	tc.ep.fr.Point(tc.ep.nodeName, 0, trace.PointRTOBackoff,
		int64(tc.ep.K.Host.Eng.Now()), tc.ctrl.RTO())
	tc.goBackN()
	tc.armRTO() // the controller's RTO has doubled
}

// fail marks the channel dead after MaxRetries consecutive timeouts:
// blocked senders wake and return ErrChannelFailed, confirmation waiters
// wake empty-handed, and the stale in-flight bookkeeping is dropped.
func (tc *txChan) fail() {
	tc.failed = true
	tc.ep.S.ChannelFailures.Inc()
	tc.ep.fr.Point(tc.ep.nodeName, 0, trace.PointChannelFailed,
		int64(tc.ep.K.Host.Eng.Now()), int64(tc.dst))
	if tc.rto != nil {
		tc.rto.Cancel()
		tc.rto = nil
	}
	tc.sentAt = map[relwin.Seq]sim.Time{}
	tc.slotFree.Broadcast()
	for key, sig := range tc.ep.confirmWait {
		if key.node == tc.dst {
			delete(tc.ep.confirmWait, key)
			sig.Notify()
		}
	}
}

// goBackN reposts the whole unacknowledged tail through the
// deferred-transmit worker, which charges the driver costs.
func (tc *txChan) goBackN() {
	// Unacked's slice aliases the window's internal state and must not be
	// retained across Push/Ack; it is consumed within this event, before
	// any sender process can run.
	unacked, _ := tc.win.Unacked()
	if len(unacked) == 0 {
		return
	}
	tc.lastGoBN = tc.ep.K.Host.Eng.Now()
	// Everything at or below the current tail is now retransmitted at
	// least once: acks for it must not feed the RTT estimator (Karn).
	tc.sampleFloor = tc.win.NextSeq()
	for _, f := range unacked {
		tc.ep.S.Retransmits.Inc()
		if f.FlightID != 0 {
			tc.ep.fr.Point(tc.ep.nodeName, f.FlightID, trace.PointRetransmit,
				int64(tc.lastGoBN), int64(len(f.Payload)))
		}
		// Repost through the adapter the frame was composed for — its Src
		// MAC is already in the frame, and on bonded endpoints pickNIC()
		// could repost it through a different adapter, skewing per-NIC
		// stats and misleading any MAC-learning switch.
		n := tc.ep.nicByMAC(f.Src)
		tc.ep.deferredQ.Put(&deferredTx{n: n, req: &nic.TxReq{Frame: f, Mode: nic.TxDMA}})
	}
}

// onNack handles a receiver's gap report. The cumulative part of the NACK
// is processed unconditionally — freed window slots must wake blocked
// senders and re-arm the timer no matter what — while the go-back-N it
// requests is debounced: right after a recovery the in-flight tail
// provokes a NACK per frame, and honouring each would multiply the
// retransmissions.
func (tc *txChan) onNack(cum relwin.Seq) {
	if tc.win.Ack(cum) > 0 { // a NACK still acknowledges everything before the gap
		tc.observeAcked(cum)
		tc.ctrl.OnProgress()
		tc.lastProgress = tc.ep.K.Host.Eng.Now()
		if tc.rto != nil {
			tc.rto.Cancel()
			tc.rto = nil
		}
		tc.slotFree.Broadcast()
	}
	now := tc.ep.K.Host.Eng.Now()
	tc.ep.fr.Point(tc.ep.nodeName, 0, trace.PointNackRecv, int64(now), int64(cum))
	debounce := tc.lastGoBN != 0 && now-tc.lastGoBN < 500*sim.Microsecond
	if !debounce {
		tc.goBackN()
	}
	tc.armRTO()
}

// onAck processes a cumulative acknowledgement arriving from dst.
func (tc *txChan) onAck(cum relwin.Seq) {
	if tc.win.Ack(cum) == 0 {
		return
	}
	tc.observeAcked(cum)
	tc.ctrl.OnProgress()
	tc.lastProgress = tc.ep.K.Host.Eng.Now()
	if tc.rto != nil {
		tc.rto.Cancel()
		tc.rto = nil
	}
	tc.armRTO() // re-arms only if frames remain in flight
	tc.slotFree.Broadcast()
}

// rxFrame is a received CLIC frame after header parse.
type rxFrame struct {
	hdr     proto.Header
	payload []byte
	frame   *ether.Frame // retained for its flight spans and points
}

// assembly rebuilds one in-flight message from its in-order fragments.
type assembly struct {
	buf     []byte
	want    int
	typ     proto.PacketType
	port    uint16
	flags   uint8
	started bool
	lastSeq relwin.Seq

	// precopy is set at message start when a receiver is already blocked
	// on the port: CLIC_MODULE then moves each packet to user memory as
	// it arrives (Fig. 3 step 6) instead of accumulating in system
	// memory, so a long message's copy overlaps its reception.
	precopy bool
}

func (a *assembly) begin(h proto.Header) {
	a.buf = a.buf[:0]
	a.want = int(h.Len)
	a.typ = h.Type
	a.port = h.Port
	a.flags = 0
	a.started = true
}

// add appends a fragment; it returns the finished message when the last
// fragment lands, else nil.
func (a *assembly) add(src NodeID, f rxFrame) *message {
	if f.hdr.Flags&proto.FlagFirst != 0 {
		a.begin(f.hdr)
	}
	if !a.started {
		// Mid-message fragment with no start (e.g. the head was dropped
		// by receiver-side flow control and this is a late duplicate):
		// discard; go-back-N will replay the whole message in order.
		return nil
	}
	a.buf = append(a.buf, f.payload...)
	a.flags |= f.hdr.Flags
	a.lastSeq = f.hdr.Seq
	if f.hdr.Flags&proto.FlagLast == 0 {
		return nil
	}
	a.started = false
	if len(a.buf) != a.want {
		// A fragment vanished between First and Last. The resequenced
		// unicast channels can never reach this; the best-effort
		// broadcast path can (a lost fragment), and must drop the
		// truncated message rather than deliver garbage.
		return nil
	}
	data := make([]byte, len(a.buf))
	copy(data, a.buf)
	return &message{Src: src, Port: a.port, Type: a.typ, Data: data}
}

// rxChan is the receive side of the reliable channel from one source node.
type rxChan struct {
	src       NodeID
	reseq     *relwin.Resequencer[rxFrame]
	asm       assembly
	sinceAck  int
	ackTimer  *sim.Event
	nackTimer *sim.Event // gap-persistence timer (fast retransmit)

	// lastProgress is the simulated time the cumulative ack point last
	// advanced (channel creation until then), for health snapshots.
	lastProgress sim.Time
}

// ackReq asks the ack worker to emit a cumulative ack or a gap report.
type ackReq struct {
	rc   *rxChan
	nack bool
}

func (ep *Endpoint) rxChanFor(src NodeID) *rxChan {
	rc, ok := ep.rx[src]
	if !ok {
		rc = &rxChan{
			src:          src,
			reseq:        relwin.NewResequencer[rxFrame](ep.M.CLIC.Window),
			lastProgress: ep.K.Host.Eng.Now(),
		}
		ep.rx[src] = rc
	}
	return rc
}
