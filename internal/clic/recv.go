package clic

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/sim"
	"repro/internal/trace"
)

// wireISR registers the receive interrupt handler for one adapter,
// implementing the two Fig. 8 variants.
func (ep *Endpoint) wireISR(n *nic.NIC) {
	irq := ep.K.RegisterIRQ(fmt.Sprintf("clic%d:%s", ep.Node, n.Name), func(p *sim.Proc) {
		frames := n.DrainCompleted()
		if len(frames) == 0 {
			return // spurious (already drained by an earlier dispatch)
		}
		switch ep.Opt.RxMode {
		case RxBottomHalf:
			// Fig. 8a: the ISR routine creates the SK_BUFF in system
			// memory and moves the data out of the NIC's receive area
			// (≈15 µs for 1400 B), then defers to CLIC_MODULE through the
			// bottom halves.
			for _, f := range frames {
				i0 := p.Now()
				ep.K.Host.CPUWork(p, ep.M.Driver.RxISRTime(len(f.Payload)), sim.PriIRQ)
				if f.FlightID != 0 {
					ep.fr.Span(ep.nodeName, f.FlightID, trace.SpanISR, int64(i0), int64(p.Now()))
					// The bh-queue span measures how long the frame sits
					// between the ISR handoff and its bottom-half run.
					ep.fr.Begin(ep.nodeName, f.FlightID, trace.SpanBHQueue, int64(p.Now()))
				}
			}
			batch := frames
			ep.K.BottomHalf(func(bp *sim.Proc) {
				for _, f := range batch {
					if f.FlightID != 0 {
						ep.fr.End(ep.nodeName, f.FlightID, trace.SpanBHQueue, int64(bp.Now()))
					}
					b0 := bp.Now()
					ep.moduleRx(bp, sim.PriKernel, f)
					if f.FlightID != 0 {
						ep.fr.Span(ep.nodeName, f.FlightID, trace.SpanBottomHalf, int64(b0), int64(bp.Now()))
					}
				}
			})
		case RxDirectCall:
			// Fig. 8b: the slimmed ISR calls CLIC_MODULE directly,
			// skipping the SK_BUFF routine and the bottom halves.
			for _, f := range frames {
				i0 := p.Now()
				ep.K.Host.CPUWork(p, ep.M.Driver.RxDirect, sim.PriIRQ)
				if f.FlightID != 0 {
					ep.fr.Span(ep.nodeName, f.FlightID, trace.SpanISR, int64(i0), int64(p.Now()))
				}
				ep.moduleRx(p, sim.PriIRQ, f)
			}
		}
	})
	n.SetIRQ(irq.Raise)
}

// moduleRx is CLIC_MODULE's per-packet receive entry: check the type
// information in the header and execute the function corresponding to the
// type of packet received (§3.1).
func (ep *Endpoint) moduleRx(p *sim.Proc, pri int, f *ether.Frame) {
	r0 := p.Now()
	ep.K.Host.CPUWork(p, ep.M.CLIC.ModuleRecv, pri)
	if f.FlightID != 0 {
		// The span covers only the header-inspection CPU work so the
		// copy-to-user stage stays separately attributed, as in Fig. 7.
		ep.fr.Span(ep.nodeName, f.FlightID, trace.SpanModuleRx, int64(r0), int64(p.Now()))
	}

	hdr, payload, err := proto.DecodeHeader(f.Payload)
	if err != nil {
		return // runt frame: drop
	}
	src, ok := ep.nodeOf(f.Src)
	if !ok {
		return // not from a cluster node
	}

	if f.Dst.IsBroadcast() || f.Dst.IsMulticast() {
		ep.rxBroadcast(p, pri, src, f.Dst, hdr, payload)
		return
	}

	switch hdr.Type {
	case proto.TypeAck:
		ep.txChanFor(src).onAck(hdr.Seq)
	case proto.TypeNack:
		ep.txChanFor(src).onNack(hdr.Seq)
	case proto.TypeConfirm:
		key := confirmKey{node: src, seq: hdr.Seq}
		if sig, ok := ep.confirmWait[key]; ok {
			delete(ep.confirmWait, key)
			ep.K.Wake(p, sig)
		}
	default:
		ep.rxData(p, pri, src, hdr, payload, f)
	}
}

// rxData runs a data-bearing frame through the reliable channel from src.
func (ep *Endpoint) rxData(p *sim.Proc, pri int, src NodeID,
	hdr proto.Header, payload []byte, f *ether.Frame) {
	// Receiver-side flow control: when kernel buffering is exhausted,
	// refuse the frame before it enters the window; the sender's
	// retransmission recovers once Recv calls drain the backlog.
	if ep.sysBufUsed >= ep.M.CLIC.SysBufBytes {
		ep.S.SysBufDrops.Inc()
		if f.FlightID != 0 {
			ep.fr.Point(ep.nodeName, f.FlightID, trace.PointDrop,
				int64(p.Now()), int64(len(payload)))
		}
		return
	}
	rc := ep.rxChanFor(src)
	delivered, accepted := rc.reseq.Accept(hdr.Seq, rxFrame{hdr: hdr, payload: payload, frame: f})
	var confirms []relwin.Seq
	switch {
	case !accepted:
		// Duplicate (a retransmission overlap): re-acknowledged below.
	case len(delivered) == 0:
		// The frame parked out of order: a frame ahead of it is missing.
		// Arm the gap-persistence timer; benign reordering (bonded links)
		// fills the gap in microseconds and cancels it, while a real loss
		// survives to trigger a NACK — far sooner than the sender's
		// retransmission timeout (fast retransmit).
		if ep.M.CLIC.FastRetransmit && rc.nackTimer == nil {
			rc.nackTimer = ep.K.Host.Eng.After(ep.M.CLIC.NackDelay, "clic:nack",
				func() {
					rc.nackTimer = nil
					if rc.reseq.Buffered() > 0 {
						ep.ackQ.Put(ackReq{rc: rc, nack: true})
					}
				})
		}
	default:
		for _, df := range delivered {
			first := df.hdr.Flags&proto.FlagFirst != 0
			msg := rc.asm.add(src, df)
			if first {
				pt := ep.portState(rc.asm.port)
				rc.asm.precopy = rc.asm.typ == proto.TypeData && len(pt.waiters) > 0
			}
			if rc.asm.precopy && len(ep.portState(rc.asm.port).waiters) == 0 {
				// The posted receiver withdrew mid-message (RecvTimeout):
				// stop paying the per-fragment copy, or the message parks
				// in system memory and Recv pays the full copy again.
				rc.asm.precopy = false
			}
			if rc.asm.precopy {
				// Receiver already posted: move this packet to user memory
				// now, overlapping the copy with reception of the rest.
				ep.K.Host.Memcpy(p, len(df.payload), pri)
			}
			if msg != nil {
				if rc.asm.flags&proto.FlagConfirm != 0 {
					confirms = append(confirms, rc.asm.lastSeq)
				}
				ep.deliverMessage2(p, pri, msg, df.frame, rc.asm.precopy)
			}
		}
		rc.lastProgress = p.Now() // the cumulative point advanced
		if rc.nackTimer != nil && rc.reseq.Buffered() == 0 {
			// The gap filled by itself: plain reordering, not loss.
			rc.nackTimer.Cancel()
			rc.nackTimer = nil
		}
	}
	rc.sinceAck += len(delivered)
	if !accepted || rc.sinceAck >= ep.M.CLIC.AckEvery {
		// Strided cumulative ack: one internal packet per AckEvery
		// frames keeps the sender's window turning during bulk traffic
		// (and a duplicate is re-acknowledged so the sender's window
		// advances even if the original ack was lost).
		ep.sendAck(p, pri, rc)
	} else if rc.sinceAck > 0 && rc.ackTimer == nil {
		// Delayed ack: a sparse exchange (e.g. one request) is
		// acknowledged off the critical path, AckDelay later, instead of
		// putting an immediate ack frame in front of the response.
		rc.ackTimer = ep.K.Host.Eng.After(ep.M.CLIC.AckDelay, "clic:delayed-ack",
			func() {
				rc.ackTimer = nil
				if rc.sinceAck > 0 {
					ep.ackQ.Put(ackReq{rc: rc})
				}
			})
	}
	for _, seq := range confirms {
		ep.sendControl(p, pri, src, proto.TypeConfirm, seq, 0, 0)
	}
}

func (ep *Endpoint) sendAck(p *sim.Proc, pri int, rc *rxChan) {
	rc.sinceAck = 0
	if rc.ackTimer != nil {
		rc.ackTimer.Cancel()
		rc.ackTimer = nil
	}
	ep.S.AcksSent.Inc()
	ep.sendControl(p, pri, rc.src, proto.TypeAck, rc.reseq.CumAck(), 0, 0)
}

// ackWorker sends delayed acks from process context (the timer callback
// cannot consume CPU itself).
func (ep *Endpoint) ackWorker(p *sim.Proc) {
	for {
		req := ep.ackQ.Get(p)
		switch {
		case req.nack:
			if req.rc.reseq.Buffered() > 0 {
				ep.fr.Point(ep.nodeName, 0, trace.PointNackSent,
					int64(p.Now()), int64(req.rc.reseq.CumAck()))
				ep.sendControl(p, sim.PriKernel, req.rc.src, proto.TypeNack,
					req.rc.reseq.CumAck(), 0, 0)
			}
		case req.rc.sinceAck > 0:
			ep.sendAck(p, sim.PriKernel, req.rc)
		}
	}
}

// deliverMessage routes one complete message by type.
func (ep *Endpoint) deliverMessage(p *sim.Proc, pri int, msg *message, f *ether.Frame) {
	ep.deliverMessage2(p, pri, msg, f, false)
}

// deliverMessage2 is deliverMessage with the pre-copied flag: true when
// the fragments were already moved to user memory as they arrived.
func (ep *Endpoint) deliverMessage2(p *sim.Proc, pri int, msg *message, f *ether.Frame, copied bool) {
	ep.S.MsgsRecv.Inc()
	ep.S.BytesRecv.Addn(int64(len(msg.Data)))
	switch msg.Type {
	case proto.TypeRemoteWrite:
		ep.deliverRemoteWrite(p, pri, msg, f)
	case proto.TypeKernelFn:
		ep.handleKernelFn(p, pri, msg)
	default:
		ep.deliverToPort(p, pri, msg, f, copied)
	}
}

// deliverToPort hands a message to a receiving process. If one is blocked
// in Recv, CLIC_MODULE copies the data into its user memory (unless the
// fragments were pre-copied on arrival) and wakes it; otherwise the
// packet remains in system memory until a receive call arrives (§3.1).
func (ep *Endpoint) deliverToPort(p *sim.Proc, pri int, msg *message, f *ether.Frame, copied bool) {
	pt := ep.portState(msg.Port)
	if len(pt.waiters) > 0 {
		w := pt.waiters[0]
		pt.waiters = pt.waiters[1:]
		c0 := p.Now()
		if !copied {
			ep.K.Host.Memcpy(p, len(msg.Data), pri) // system → user memory
		}
		if f != nil && f.FlightID != 0 {
			ep.fr.Span(ep.nodeName, f.FlightID, trace.SpanCopyToUser, int64(c0), int64(p.Now()))
		}
		w.msg = msg
		ep.K.Wake(p, w.sig)
		return
	}
	ep.sysBufUsed += len(msg.Data)
	pt.pending = append(pt.pending, msg)
}

// Recv blocks until a message arrives on port and returns its source and
// payload. If the message is already waiting in system memory, the call
// pays only the syscall and the final copy; otherwise the process blocks
// and CLIC_MODULE performs the copy at delivery time (§3.1).
func (ep *Endpoint) Recv(p *sim.Proc, portID uint16) (src NodeID, data []byte) {
	ep.K.SyscallEnter(p)
	defer ep.K.SyscallExit(p)

	pt := ep.portState(portID)
	if len(pt.pending) > 0 {
		msg := pt.pending[0]
		pt.pending = pt.pending[1:]
		ep.sysBufUsed -= len(msg.Data)
		ep.K.Host.Memcpy(p, len(msg.Data), sim.PriKernel)
		return msg.Src, msg.Data
	}
	w := &recvWaiter{sig: sim.NewSignal(fmt.Sprintf("clic%d:recv%d", ep.Node, portID))}
	pt.waiters = append(pt.waiters, w)
	w.sig.Wait(p)
	return w.msg.Src, w.msg.Data
}

// RecvTimeout is Recv with a deadline: it returns ok=false if no message
// lands on the port within d. Layers that must make progress despite
// best-effort traffic (the reliable-broadcast repair of internal/mpi)
// build on it.
func (ep *Endpoint) RecvTimeout(p *sim.Proc, portID uint16, d sim.Time) (src NodeID, data []byte, ok bool) {
	ep.K.SyscallEnter(p)
	defer ep.K.SyscallExit(p)

	pt := ep.portState(portID)
	if len(pt.pending) > 0 {
		msg := pt.pending[0]
		pt.pending = pt.pending[1:]
		ep.sysBufUsed -= len(msg.Data)
		ep.K.Host.Memcpy(p, len(msg.Data), sim.PriKernel)
		return msg.Src, msg.Data, true
	}
	w := &recvWaiter{sig: sim.NewSignal(fmt.Sprintf("clic%d:recvT%d", ep.Node, portID))}
	pt.waiters = append(pt.waiters, w)
	timer := ep.K.Host.Eng.After(d, "clic:recv-timeout", func() {
		// Still waiting: withdraw the waiter and wake it empty-handed.
		for i, cand := range pt.waiters {
			if cand == w {
				pt.waiters = append(pt.waiters[:i], pt.waiters[i+1:]...)
				w.sig.Notify()
				return
			}
		}
	})
	w.sig.Wait(p)
	timer.Cancel()
	if w.msg == nil {
		return 0, nil, false
	}
	return w.msg.Src, w.msg.Data, true
}

// TryRecv is the non-blocking receive: "if the message has not arrived
// yet, CLIC_MODULE does nothing and returns" (§3.1).
func (ep *Endpoint) TryRecv(p *sim.Proc, portID uint16) (src NodeID, data []byte, ok bool) {
	ep.K.SyscallEnter(p)
	defer ep.K.SyscallExit(p)

	pt := ep.portState(portID)
	if len(pt.pending) == 0 {
		return 0, nil, false
	}
	msg := pt.pending[0]
	pt.pending = pt.pending[1:]
	ep.sysBufUsed -= len(msg.Data)
	ep.K.Host.Memcpy(p, len(msg.Data), sim.PriKernel)
	return msg.Src, msg.Data, true
}

// Pending reports how many messages wait unclaimed on a port (tests).
func (ep *Endpoint) Pending(portID uint16) int {
	return len(ep.portState(portID).pending)
}
