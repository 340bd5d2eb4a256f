package clic

import (
	"errors"

	"repro/internal/ether"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrChannelFailed reports that the reliable channel to the destination
// exhausted its retransmission budget (CLIC.MaxRetries consecutive
// timeouts with no acknowledgement progress) and was declared dead.
var ErrChannelFailed = errors.New("clic: channel failed after max retries")

// Send transmits data to (dst, port) reliably and asynchronously: it
// returns once every fragment has been handed to the driver (or buffered
// in system memory when the transmit ring is full, §3.1). Delivery is
// guaranteed by the window/ack/retransmit machinery; use SendConfirm to
// block until the receiver has the message. With a bounded retry budget
// (CLIC.MaxRetries > 0) it returns ErrChannelFailed once the channel to
// dst is declared dead.
func (ep *Endpoint) Send(p *sim.Proc, dst NodeID, port uint16, data []byte) error {
	if dst == ep.Node {
		ep.sendLocal(p, port, data)
		return nil
	}
	t0 := p.Now()
	ep.K.SyscallEnter(p)
	_, err := ep.sendMessage(p, dst, port, proto.TypeData, 0, data)
	ep.K.SyscallExit(p)
	ep.flightSyscall(t0, p.Now(), err)
	return err
}

// flightSyscall journals the send-syscall span — the Fig. 7 top-of-stack
// stage — attributed to the last data fragment the call composed.
func (ep *Endpoint) flightSyscall(begin, end sim.Time, err error) {
	if ep.fr != nil && err == nil && ep.lastFlight != 0 {
		ep.fr.Span(ep.nodeName, ep.lastFlight, trace.SpanSendSyscall, int64(begin), int64(end))
	}
}

// SendConfirm transmits data and blocks until the receiver's CLIC_MODULE
// returns a confirmation-of-reception packet ("primitives to send messages
// with confirmation of reception", §5). It returns ErrChannelFailed if
// the channel dies before the confirmation arrives.
func (ep *Endpoint) SendConfirm(p *sim.Proc, dst NodeID, port uint16, data []byte) error {
	if dst == ep.Node {
		ep.sendLocal(p, port, data)
		return nil
	}
	t0 := p.Now()
	ep.K.SyscallEnter(p)
	lastSeq, err := ep.sendMessage(p, dst, port, proto.TypeData, proto.FlagConfirm, data)
	if err != nil {
		ep.K.SyscallExit(p)
		return err
	}
	sig := sim.NewSignal("clic:confirm")
	ep.confirmWait[confirmKey{node: dst, seq: lastSeq}] = sig
	sig.Wait(p)
	ep.K.SyscallExit(p)
	// The confirm variant blocks in the syscall until the receiver's
	// confirmation returns, so its span truthfully spans the round trip.
	ep.flightSyscall(t0, p.Now(), nil)
	if ep.txChanFor(dst).failed {
		return ErrChannelFailed
	}
	return nil
}

// sendLocal is the intra-node fast path (§5: CLIC "allows communication
// between processes running on the same processor"): one syscall, one
// kernel-mediated copy, no NIC.
func (ep *Endpoint) sendLocal(p *sim.Proc, port uint16, data []byte) {
	ep.K.SyscallEnter(p)
	ep.K.Host.CPUWork(p, ep.M.CLIC.ModuleSend+ep.M.CLIC.IntraNodeLatency, sim.PriKernel)
	msg := &message{Src: ep.Node, Port: port, Type: proto.TypeData,
		Data: append([]byte(nil), data...)}
	ep.S.MsgsSent.Inc()
	ep.S.BytesSent.Addn(int64(len(data)))
	ep.deliverToPort(p, sim.PriKernel, msg, nil, false)
	ep.K.SyscallExit(p)
}

// sendMessage fragments data onto the reliable channel to dst and pushes
// each fragment down the configured Fig. 1 path. It must run with the
// syscall already entered. It returns the sequence number of the last
// fragment (the key a confirmation will echo), or ErrChannelFailed when
// the channel's retry budget is exhausted.
func (ep *Endpoint) sendMessage(p *sim.Proc, dst NodeID, port uint16,
	typ proto.PacketType, flags uint8, data []byte) (relwin.Seq, error) {

	tc := ep.txChanFor(dst)
	if tc.failed {
		return 0, ErrChannelFailed
	}
	total := len(data)
	off := 0
	first := true
	var lastSeq relwin.Seq
	for {
		n, stripe := ep.pickNIC()
		end := off + ep.maxFragPayload(n)
		if end > total {
			end = total
		}
		last := end == total

		// The flight id is allocated before the window wait so the
		// fragment's stall on flow control is attributed to it.
		var fid uint64
		if ep.fr != nil {
			fid = ep.fr.NewFrameID()
			ep.lastFlight = fid
		}

		// Window flow control: block until a slot frees (finite
		// buffering, §1). The wait happens inside the send syscall. A
		// channel failure broadcasts slotFree, so blocked senders wake
		// here and surface the error.
		if !tc.win.CanSend() {
			w0 := p.Now()
			for !tc.win.CanSend() {
				if tc.failed {
					return 0, ErrChannelFailed
				}
				tc.slotFree.Wait(p)
			}
			if fid != 0 {
				ep.fr.Span(ep.nodeName, fid, trace.SpanWinWait, int64(w0), int64(p.Now()))
			}
		}
		if tc.failed {
			return 0, ErrChannelFailed
		}

		// CLIC_MODULE composes the level-1 header and the 12-byte CLIC
		// header and updates the SK_BUFF (§3.1, Fig. 7: ≈0.7 µs).
		m0 := p.Now()
		ep.K.Host.CPUWork(p, ep.M.CLIC.ModuleSend, sim.PriKernel)

		hdr := proto.Header{Type: typ, Port: port, Seq: tc.win.NextSeq(), Len: uint32(total)}
		if first {
			hdr.Flags |= proto.FlagFirst
		}
		if last {
			hdr.Flags |= proto.FlagLast
			hdr.Flags |= flags & proto.FlagConfirm
		}
		payload := hdr.Encode(make([]byte, 0, proto.HeaderBytes+end-off))
		payload = append(payload, data[off:end]...)
		frame := &ether.Frame{
			Dst: ep.resolve(dst, stripe), Src: n.MAC,
			Type: ether.TypeCLIC, Payload: payload, FlightID: fid,
		}
		lastSeq = tc.win.Push(frame)
		tc.sentAt[lastSeq] = p.Now()
		tc.armRTO()

		mode := ep.chargeSendPath(p, end-off)
		if fid != 0 {
			ep.fr.Span(ep.nodeName, fid, trace.SpanModuleSend, int64(m0), int64(p.Now()))
		}
		if n.CanTx() {
			// The driver maps the SK_BUFF and posts the descriptor
			// (Fig. 7: ≈4 µs); the NIC then pulls the data as bus master
			// and "CLIC_MODULE and the driver can finish before the data
			// transference starts" (§3.1).
			d0 := p.Now()
			ep.K.Host.CPUWork(p, ep.M.Driver.Send, sim.PriKernel)
			n.PostTx(p, sim.PriKernel, &nic.TxReq{Frame: frame, Mode: mode})
			if fid != 0 {
				ep.fr.Span(ep.nodeName, fid, trace.SpanDriverTx, int64(d0), int64(p.Now()))
			}
		} else {
			// "If the data cannot be sent at the present moment,
			// CLIC_MODULE copies the data in the system memory" and the
			// driver sends it later (§3.1).
			if mode == nic.TxDMA {
				ep.K.Host.Memcpy(p, end-off, sim.PriKernel)
			}
			ep.S.Deferred.Inc()
			if fid != 0 {
				ep.fr.Point(ep.nodeName, fid, trace.PointDeferred, int64(p.Now()), int64(end-off))
			}
			ep.deferredQ.Put(&deferredTx{n: n, req: &nic.TxReq{Frame: frame, Mode: mode}})
		}
		ep.S.FramesSent.Inc()

		off = end
		first = false
		if last {
			break
		}
	}
	ep.S.MsgsSent.Inc()
	ep.S.BytesSent.Addn(int64(total))
	return lastSeq, nil
}

// chargeSendPath charges the data-movement cost of one fragment for the
// configured Fig. 1 path and returns how the NIC should treat the payload.
func (ep *Endpoint) chargeSendPath(p *sim.Proc, n int) nic.TxMode {
	h := ep.K.Host
	switch ep.Opt.SendPath {
	case Path2ZeroCopy:
		// The NIC pulls straight from user pages; nothing to charge here
		// (the DMA itself is charged on the NIC engine).
		return nic.TxDMA
	case Path3OneCopy:
		h.Memcpy(p, n, sim.PriKernel) // user → kernel buffer
		return nic.TxDMA
	case Path1PIO:
		h.PIO(p, n, sim.PriKernel) // user → NIC buffer, CPU-driven
		return nic.TxPreloaded
	case Path4TwoCopy:
		h.Memcpy(p, n, sim.PriKernel) // user → kernel buffer
		h.PIO(p, n, sim.PriKernel)    // kernel → NIC buffer, CPU-driven
		return nic.TxPreloaded
	default:
		panic("clic: unknown send path")
	}
}

// deferredWorker drains frames that could not be posted inline: ring-full
// fallbacks (§3.1) and go-back-N retransmissions. It waits for transmit
// ring space and charges the driver cost per frame.
func (ep *Endpoint) deferredWorker(p *sim.Proc) {
	for {
		d := ep.deferredQ.Get(p)
		for !d.n.CanTx() {
			d.n.TxFree.Wait(p)
		}
		d0 := p.Now()
		ep.K.Host.CPUWork(p, ep.M.Driver.Send, sim.PriKernel)
		d.n.PostTx(p, sim.PriKernel, d.req)
		if fid := d.req.Frame.FlightID; fid != 0 {
			// A second driver-tx span for the same frame marks a deferred
			// post or a go-back-N retransmission; the frame tree shows both.
			ep.fr.Span(ep.nodeName, fid, trace.SpanDriverTx, int64(d0), int64(p.Now()))
		}
	}
}

// sendControl emits a small internal packet (ack, confirmation) outside
// the reliable window. pri is the CPU priority of the calling context.
func (ep *Endpoint) sendControl(p *sim.Proc, pri int, dst NodeID,
	typ proto.PacketType, seq relwin.Seq, length uint32, port uint16) {

	ep.K.Host.CPUWork(p, ep.M.CLIC.ModuleSend, pri)
	hdr := proto.Header{Type: typ, Port: port, Seq: seq, Len: length}
	n, stripe := ep.pickNIC()
	frame := &ether.Frame{
		Dst: ep.resolve(dst, stripe), Src: n.MAC,
		Type: ether.TypeCLIC, Payload: hdr.Encode(nil),
		// Control frames get flight ids too, so acks and confirmations
		// show their wire spans alongside the data frames they answer.
		FlightID: ep.fr.NewFrameID(),
	}
	req := &nic.TxReq{Frame: frame, Mode: nic.TxDMA}
	if n.CanTx() {
		ep.K.Host.CPUWork(p, ep.M.Driver.Send, pri)
		n.PostTx(p, pri, req)
	} else {
		ep.deferredQ.Put(&deferredTx{n: n, req: req})
	}
}
