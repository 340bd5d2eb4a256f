package live

import (
	"context"
	"encoding/binary"
	"net/netip"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/lockcheck"
	"repro/internal/perfreg"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/trace"
)

// liveRxChan is the receive side of one peer channel, guarded by its
// own mutex. It is driven almost exclusively by the socket's current
// reader (rxLoop, or a Recv caller on the direct-call rung); the lock
// exists for the senders that take an owed ack (takeAck, ackAlone),
// AddPeer, health snapshots and teardown.
type liveRxChan struct {
	src int

	// mu is a state lock like tc.mu: no socket write and no port-queue
	// handoff happens under it — acks are framed under mu and written
	// after release, and completed messages are staged on pending and
	// delivered after release.
	//lockorder: rank=20 name=rc.mu
	mu    lockcheck.Mutex
	addr  netip.AddrPort // peer address for acks, cached from the peer table
	reseq *relwin.Resequencer[rxDatagram]
	asm   liveAsm

	// pending stages messages completed during the current locked
	// dispatch; the reader drains it after releasing mu, so
	// delivery (port-queue sends, region remote writes, the pmu port
	// lookup) never happens under a channel lock. Owned by the socket's
	// current reader; the backing array is reused across datagrams.
	pending []pendingMsg

	// emit is the persistent resequencer delivery hook: allocated once
	// so the in-order fast path creates no closures.
	emit func(rxDatagram)

	// Ack state: sinceAck counts delivered-but-unacked frames, the ack
	// owed; ackNow forces a flush at burst end (a delivered frame asked
	// for an ack, or a duplicate came in, where a prompt re-ack unsticks
	// the peer); inBurst dedupes this channel into the reader's touched
	// set.
	sinceAck int
	ackNow   bool
	inBurst  bool

	// nacked says the hole at nackCum has been reported: flushAcks sends
	// one TypeNack per hole, at the end of the first burst that leaves
	// frames parked behind it, and clears the mark once the park empties.
	nacked  bool
	nackCum relwin.Seq

	// lastCum and lastProgressNs track receive progress for health
	// snapshots: lastProgressNs advances (at burst granularity, in
	// flushAcks — never per frame) whenever the cumulative ack moved
	// past lastCum. Guarded by mu.
	lastCum        relwin.Seq
	lastProgressNs int64

	// shard is the socket ackAlone's sends go through; burst acks use
	// the socket the burst arrived on.
	shard *rxShard

	// edge is the highest edge an ack of this channel advertised (the
	// peer's Window until the first ack, as the peer assumes); no later
	// ack pulls it back. Guarded by mu.
	edge relwin.Seq

	// ackBuf is the preframed ack datagram: burst-flush acks are encoded
	// into it under mu and written after release, so the hot path
	// allocates nothing. Exclusive to the socket's current reader —
	// ackAlone frames on its own stack buffer, so the post-unlock write
	// never races.
	ackBuf [proto.HeaderBytes]byte
}

// pendingMsg is one completed message staged for delivery outside the
// channel lock. When fb is non-nil the borrowed view aliases that
// pooled buffer, whose return to the pool was deferred to the drain.
type pendingMsg struct {
	src   int
	port  uint16
	typ   proto.PacketType
	seq   relwin.Seq
	view  []byte
	owned bool
	fb    *frameBuf
}

// rxDatagram is one sequenced datagram in flight through the
// resequencer. On the in-order fast path payload aliases the socket
// read buffer and fb is nil; a parked out-of-order datagram owns a
// pooled copy through fb, returned to the pool as the gap fills.
type rxDatagram struct {
	hdr     proto.Header
	payload []byte
	fb      *frameBuf
}

func newRxChan(n *Node, src int, addr netip.AddrPort) *liveRxChan {
	rc := &liveRxChan{
		src:            src,
		addr:           addr,
		shard:          n.shardFor(src),
		reseq:          relwin.NewResequencer[rxDatagram](n.cfg.Window),
		edge:           relwin.Seq(n.cfg.Window),
		lastProgressNs: time.Now().UnixNano(),
	}
	rc.mu.SetRank(rankChanMu, "rc.mu")
	rc.emit = func(d rxDatagram) {
		rc.sinceAck++
		if d.hdr.Flags&proto.FlagAckReq != 0 {
			rc.ackNow = true
		}
		if view, owned, done := rc.asm.add(d); done {
			// Stage rather than deliver: delivery sends on port channels
			// and takes pmu/region locks, none of which may happen under
			// rc.mu. The reader drains right after releasing the lock.
			p := pendingMsg{src: rc.src, port: rc.asm.port, typ: rc.asm.typ,
				seq: rc.asm.lastSeq, view: view, owned: owned}
			if !owned && d.fb != nil {
				// The borrowed view aliases this parked pooled buffer, so
				// its pool return moves to the drain, after delivery.
				p.fb, d.fb = d.fb, nil
			}
			rc.pending = append(rc.pending, p)
		}
		if d.fb != nil {
			d.fb.retained = false
			n.pool.Put(d.fb)
		}
	}
	return rc
}

// drainPending delivers the messages staged during a locked dispatch.
// Called by the socket's current reader with rc.mu released:
// borrowed views alias either the batch reader's resident buffers —
// valid until the next read, which only the baton holder issues — or a
// transferred pooled buffer, returned here once delivery is done.
func (n *Node) drainPending(s *rxShard, rc *liveRxChan) {
	for i := range rc.pending {
		p := &rc.pending[i]
		n.deliver(s, p.src, p.port, p.typ, p.seq, p.view, p.owned)
		fb := p.fb
		*p = pendingMsg{} // drop buffer refs so the reused array pins nothing
		if fb != nil {
			fb.retained = false
			n.pool.Put(fb)
		}
	}
	rc.pending = rc.pending[:0]
}

// rxDirectAfter is the direct-call rung's hysteresis: after a deep
// burst rxLoop keeps the socket until this many shallow bursts in a
// row, so a stream pausing between windows does not bounce readers.
const rxDirectAfter = 8

// rxTakeover is how long the token may sit free, with no Recv caller
// taking it, before rxLoop reads the socket again. The clock starts
// when the token is put back, so an unread socket is picked up within
// two: far under RTOMin, so a node whose application stops calling Recv
// still acks before its peer's RTO.
const rxTakeover = 500 * time.Microsecond

// rxLoop is the socket's reader of last resort — the live analogue of
// the driver ISR + CLIC_MODULE bottom half. Each turn is one rxBurst,
// and the turns climb the paper's RX ladder with offered load:
//
//   - Every burst is one blocking read: it parks in the poller until
//     the socket queue is non-empty and drains it in one wake-up, the
//     interrupt-coalescing rung (recvmmsg on Linux). Ack decisions are
//     deferred to burst end, so a burst answers with one cumulative ack
//     per channel, not one per frame.
//   - On a single-socket node, after rxDirectAfter shallow bursts, a
//     burst that finds a Recv caller parked ends with rxLoop giving the
//     socket away (napRx): the direct-call rung of Fig. 8b, where the
//     application's goroutine runs the protocol itself (readDirect). A
//     deep burst (cnt >= rxBatchSize frames, be it a full recvmmsg of
//     single datagrams or one superframe) signals line-rate traffic and
//     brings the socket back to rxLoop.
func (n *Node) rxLoop(s *rxShard) {
	defer n.wg.Done()
	// The loop goroutine carries the isr pprof stage (it is the live
	// analogue of the driver ISR: socket reads); each burst's protocol
	// dispatch re-labels itself module-rx and restores ctx on return.
	// One-time cost when profiling is off.
	ctx := context.Background()
	if perfreg.Enabled() {
		ctx = perfreg.LabelGoroutine(ctx, trace.SpanISR)
	}
	direct := len(n.shards) == 1
	for {
		if err := n.rxBurst(ctx, s); err != nil {
			break // socket closed
		}
		if direct && s.shallow >= rxDirectAfter && s.waiters.Load() > 0 && !n.napRx(s) {
			// Closing: only the token's holder may recycle the slab.
			select {
			case <-s.baton:
			case <-s.handback:
			}
			break
		}
	}
	s.br.close()
}

// napRx gives the token to the Recv callers and sleeps until rxLoop
// must read again: the token is handed back, or it sat free for a whole
// rxTakeover. The clock runs only while the token is free: it starts
// when the token is offered, and when a check finds a Recv caller
// holding the token rxLoop sleeps untimed until that caller's release
// restarts it (releaseRx). So a reader waiting long in the poller is
// never taken over, and rxLoop wakes once per such release or per
// rxTakeover, never per message. It reports false when the node is
// closing.
func (n *Node) napRx(s *rxShard) bool {
	for {
		s.armed.Store(s.releases.Load())
		select { // drop a fire left over from an earlier clock
		case <-s.nap.C:
		default:
		}
		s.baton <- struct{}{}
		s.nap.Reset(rxTakeover)
		for offered := true; offered; {
			select {
			case <-s.nap.C:
			case <-s.handback:
				return true
			case <-n.done:
				return false
			}
			gen := s.armed.Load()
			s.watch.Store(true) // before the probe: a release after it restarts the clock
			select {
			case <-s.baton:
				if s.releases.Load() == gen {
					return true // free since the clock started: read again
				}
				offered = false // read meanwhile: offer it again
			case <-s.handback:
				return true
			default: // a Recv caller is reading
			}
		}
	}
}

// rxBurst is one turn of the socket's reader, whoever holds the token:
// read a burst, account for it, and run it through dispatchBurst and
// flushAcks. ctx is the label set the module-rx stage restores.
func (n *Node) rxBurst(ctx context.Context, s *rxShard) error {
	cnt, err := s.br.readBatch()
	if err != nil {
		return err
	}
	if rxBatchSize > 1 && cnt >= rxBatchSize {
		// A deep batch: the socket queue is likely still non-empty (or
		// about to be refilled), so restart the direct rung's hysteresis.
		s.shallow = 0
	} else if s.shallow < rxDirectAfter {
		s.shallow++
	}
	if s.want >= 0 {
		s.direct.Inc()
	}
	n.socketReads.Addn(int64(cnt))
	s.bursts.Inc()
	s.frames.Addn(int64(cnt))
	if perfreg.Enabled() {
		perfreg.Do(ctx, trace.SpanModuleRx, func() {
			n.dispatchBurst(s, cnt)
			n.flushAcks(s)
		})
	} else {
		n.dispatchBurst(s, cnt)
		n.flushAcks(s)
	}
	return nil
}

// readDirect is the direct-call rung (Fig. 7b/8b: CLIC_MODULE runs from
// the interrupt, not a bottom half). The Recv caller holding the token
// reads the socket and runs the protocol itself until deliver leaves
// its message in s.got: one wake-up per message, where a hand-off
// through the port queue costs two. Other ports' messages are queued as
// usual. With its message the caller puts the token back for the next
// Recv caller; after a deep burst (rxBurst reset s.shallow) it hands it
// to rxLoop at once, since line-rate traffic belongs with rxLoop, which
// overlaps protocol work with the application. ok is false when it
// handed back without a message.
func (n *Node) readDirect(s *rxShard, port uint16, ch chan Message) (msg Message, ok bool, err error) {
	for {
		select {
		case msg = <-ch:
			n.releaseRx(s)
			return msg, true, nil
		default:
		}
		s.want = int32(port)
		err = n.rxBurst(context.Background(), s)
		s.want = -1
		if err != nil {
			n.releaseRx(s)
			return Message{}, true, ErrClosed
		}
		msg, ok = s.got, s.gotOK
		s.got, s.gotOK = Message{}, false
		if s.shallow == 0 {
			s.handback <- struct{}{}
			return msg, ok, nil
		}
		if ok {
			n.releaseRx(s)
			return msg, true, nil
		}
	}
}

// releaseRx ends a Recv caller's turn as reader: the token goes back to
// the baton channel for the next Recv caller, or straight to rxLoop
// when a goroutine that cannot read is waiting on receive progress. If
// rxLoop found this caller reading at its last check, the release
// starts its takeover clock. The count is raised before the token is
// free, so a check that takes the token sees every release before it.
func (n *Node) releaseRx(s *rxShard) {
	gen := s.releases.Add(1)
	s.baton <- struct{}{}
	if s.watch.Load() && s.watch.CompareAndSwap(true, false) {
		s.armed.Store(gen)
		s.nap.Reset(rxTakeover)
	}
	if s.stalled.Load() > 0 {
		kickRx(s)
	}
}

// kickRx hands a free token to rxLoop. It may run under a state lock,
// so both channel operations are non-blocking; the inner one always
// succeeds, since the token it just took is the only one.
func kickRx(s *rxShard) {
	select {
	case <-s.baton:
		select {
		case s.handback <- struct{}{}:
		default:
		}
	default:
	}
}

// rxWait brackets (+1 before, -1 after) every blocking wait for receive
// progress other than Recv's — window space, a confirmation, a hello
// reply, remote writes. Such a waiter cannot read the socket, so on a
// single-socket node a free token goes to rxLoop now, and a direct
// reader leaving meanwhile hands it there too (releaseRx).
func (n *Node) rxWait(delta int32) {
	if len(n.shards) == 1 && n.shards[0].stalled.Add(delta) > 0 && delta > 0 {
		kickRx(n.shards[0])
	}
}

// dispatchBurst decodes a burst and dispatches its datagrams one at a
// time, in the order they arrived: control frames are consumed in
// place, and each data datagram goes through dispatchData, after its
// piggy-backed ack, if any, went through onAck. Arrival
// order is the peer's send order, so a bye never overtakes the data its
// peer sent before it.
func (n *Node) dispatchBurst(s *rxShard, cnt int) {
	for i := 0; i < cnt; i++ {
		dgram, from := s.br.datagram(i)
		hdr, payload, err := proto.DecodeHeader(dgram)
		if err != nil {
			continue // runt datagram
		}
		n.framesRecv.Inc()
		if hdr.Type == proto.TypeHello {
			// Handshakes precede registration by definition, so they are
			// handled before the peer-table lookup.
			n.onHello(s, from, hdr)
			continue
		}
		n.pmu.RLock()
		src, ok := n.peerIDs[from]
		n.pmu.RUnlock()
		if !ok {
			continue // not from a registered peer
		}
		switch hdr.Type {
		case proto.TypeAck, proto.TypeNack:
			// Control frames are decoded and consumed entirely in place —
			// no copy, no retention.
			n.pmu.RLock()
			tc := n.tx[src]
			n.pmu.RUnlock()
			if tc != nil {
				n.onAck(tc, hdr)
			}
		case proto.TypeBye:
			n.onBye(s, src)
		case proto.TypeData, proto.TypeRemoteWrite:
			if hdr.Flags&proto.FlagAck != 0 {
				// A piggy-backed ack: absorbed before the data and outside
				// rc.mu (tc.mu and rc.mu never nest), then stripped.
				cum, edge, rest, err := proto.DecodeAckExt(payload)
				if err != nil {
					continue // runt datagram
				}
				n.pmu.RLock()
				tc := n.tx[src]
				n.pmu.RUnlock()
				if tc != nil {
					n.onAck(tc, proto.Header{Type: proto.TypeAck, Seq: cum, Len: edge})
				}
				hdr.Flags &^= proto.FlagAck
				payload = rest
			}
			n.dispatchData(s, src, hdr, payload)
		default:
			// Only the types send() frames are sequenced. Anything else
			// carries a Seq from some other space; run through the
			// resequencer it would consume a sequence number and the real
			// data frame would then be dropped as its duplicate.
			n.unknownFrames.Inc()
		}
	}
}

// dispatchData runs one data-bearing datagram from src through the
// reliable channel under the channel lock, then delivers the messages
// it completed with the lock released.
func (n *Node) dispatchData(s *rxShard, src int, hdr proto.Header, payload []byte) {
	rc := n.rxFor(src)
	rc.mu.Lock()
	if !rc.inBurst {
		rc.inBurst = true
		s.touched = append(s.touched, rc)
	}
	if n.fr != nil {
		// Close the wire span the sender opened — the id derives from
		// (sender, sequence) identically on both ends — and wrap the
		// protocol processing in a module-rx span.
		fid := flight.FrameID(src, hdr.Seq)
		n.fr.End(n.nodeName, fid, trace.SpanWire, time.Now().UnixNano())
		r0 := time.Now()
		n.onData(rc, hdr, payload)
		n.fr.Span(n.nodeName, fid, trace.SpanModuleRx,
			r0.UnixNano(), time.Now().UnixNano())
	} else {
		n.onData(rc, hdr, payload)
	}
	rc.mu.Unlock()
	n.drainPending(s, rc)
}

// onData runs a data-bearing datagram through the reliable channel.
// Called with rc.mu held.
func (n *Node) onData(rc *liveRxChan, hdr proto.Header, payload []byte) {
	cum := rc.reseq.CumAck()
	switch {
	case hdr.Seq == cum:
		// In-order fast path: zero copy. The payload aliases the socket
		// read buffer; the emit hook consumes it synchronously (into the
		// assembly or the delivered message) before the next socket read
		// can overwrite it.
		rc.reseq.AcceptFunc(hdr.Seq, rxDatagram{hdr: hdr, payload: payload}, rc.emit)
	case relwin.Before(hdr.Seq, cum):
		// Duplicate of a delivered frame (retransmission overlap): flush
		// a prompt re-ack at burst end so a lost ack doesn't stall the
		// peer.
		n.dupFrames.Inc()
		rc.ackNow = true
	default:
		// A gap: park a copy in a pooled buffer until a retransmission
		// fills the hole. The copy is unavoidable — the park outlives
		// the read buffer — but it is the cold path by construction.
		var d rxDatagram
		if len(payload) <= n.pool.size {
			fb := n.pool.Get()
			fb.n = copy(fb.b, payload)
			fb.retained = true
			d = rxDatagram{hdr: hdr, payload: fb.b[:fb.n], fb: fb}
		} else {
			// Oversized foreign datagram: a one-off buffer the pool will
			// decline to keep.
			fb := &frameBuf{b: append([]byte(nil), payload...), retained: true}
			fb.n = len(fb.b)
			d = rxDatagram{hdr: hdr, payload: fb.b, fb: fb}
		}
		if !rc.reseq.AcceptFunc(hdr.Seq, d, rc.emit) {
			// Already parked (a peer that keeps below its edge never
			// fills the park): drop and re-ack.
			d.fb.retained = false
			n.pool.Put(d.fb)
			n.dupFrames.Inc()
			rc.ackNow = true
		}
	}
}

// advertiseEdge returns rc's cumulative ack and the edge an ack
// carries with it: cum plus the channel's share of the receive budget
// (aggregate socket buffering, halved for slack, split evenly across
// active talkers, clamped to the window) minus what is parked, floored
// at one frame so a blocked sender can always probe — and never below
// an edge already advertised. edge - cum <= Window always holds, so the
// resequencer parks every frame it granted. Called with rc.mu held.
func (n *Node) advertiseEdge(rc *liveRxChan) (cum, edge relwin.Seq) {
	share := min(n.creditFrames/max(n.rxPeers.Load(), 1), int64(n.cfg.Window))
	cum = rc.reseq.CumAck()
	if e := cum + relwin.Seq(max(share-int64(rc.reseq.Buffered()), 1)); relwin.Before(rc.edge, e) {
		rc.edge = e
	}
	return cum, rc.edge
}

// ackHeader frames rc's cumulative acknowledgement as typ (TypeAck, or
// TypeNack when it also reports a hole), with its edge in Len. Called
// with rc.mu held.
func (n *Node) ackHeader(rc *liveRxChan, typ proto.PacketType) proto.Header {
	cum, edge := n.advertiseEdge(rc)
	return proto.Header{Type: typ, Seq: cum, Len: edge}
}

// flushAcks ends a burst: every touched channel that was asked for an
// ack (a delivered frame had FlagAckReq), saw a duplicate or has a new
// hole sends one cumulative ack, with its edge; any other channel that
// owes an ack leaves it for a reverse data frame to carry (takeAck). No
// timer stands behind that: a sender that needs the ack asks for it,
// at the latest when its RTO expires (rtoRepair). Acks go out on the
// shard the burst arrived on.
//
// A channel that ends the burst with frames still parked has a hole the
// burst did not fill — the sender writes in order and loopback does not
// reorder, so the missing frame is lost (or injected-late, which costs
// one redundant repair). Its ack goes out at once as a TypeNack, once
// per hole: "the gap outlived the burst it was seen in" stands in for
// the simulator's NackDelay timer.
func (n *Node) flushAcks(s *rxShard) {
	var nowNs int64 // lazily stamped once per burst
	for _, rc := range s.touched {
		rc.mu.Lock()
		rc.inBurst = false
		cum := rc.reseq.CumAck()
		if cum != rc.lastCum {
			if nowNs == 0 {
				nowNs = time.Now().UnixNano()
			}
			rc.lastCum = cum
			rc.lastProgressNs = nowNs
		}
		typ := proto.TypeAck
		if rc.reseq.Buffered() == 0 {
			rc.nacked = false
		} else if !rc.nacked || rc.nackCum != cum {
			rc.nacked, rc.nackCum = true, cum
			typ = proto.TypeNack
		}
		flush := typ == proto.TypeNack || rc.ackNow
		if flush {
			rc.sinceAck = 0
			rc.ackNow = false
			// Frame under the lock, write after release: the socket write
			// must not happen under rc.mu. ackBuf is exclusive to the
			// socket's reader, so the post-unlock read of it is race-free.
			n.ackHeader(rc, typ).Put(rc.ackBuf[:])
		}
		addr := rc.addr
		rc.mu.Unlock()
		if flush {
			n.acksSent.Inc()
			if typ == proto.TypeNack {
				n.nacksSent.Inc()
				if n.fr != nil {
					n.fr.Point(n.nodeName, 0, trace.PointNackSent, time.Now().UnixNano(), int64(cum))
				}
			}
			// Control datagrams carry no flight id (0): their sequence
			// numbers live in the peer's space, so deriving an id here
			// would collide.
			n.transmit(s.conn, addr, rc.ackBuf[:], 0)
		}
	}
	s.touched = s.touched[:0]
}

// ackAlone sends rc's cumulative ack as a datagram of its own through
// rc's shard, outside any burst: for a sender about to wait for window
// space with the ack it took in its frame (sendMsg).
func (n *Node) ackAlone(rc *liveRxChan) {
	rc.mu.Lock()
	rc.sinceAck = 0
	rc.ackNow = false
	// Frame on the stack, not into rc.ackBuf: that buffer belongs to the
	// socket's reader, whose burst flush reads it outside the lock. This is
	// the cold path, so the escaping buffer's allocation is acceptable.
	var buf [proto.HeaderBytes]byte
	n.ackHeader(rc, proto.TypeAck).Put(buf[:])
	addr := rc.addr
	rc.mu.Unlock()
	n.acksSent.Inc()
	n.transmit(rc.shard.conn, addr, buf[:], 0)
}

// liveAsm reassembles fragments into messages.
type liveAsm struct {
	buf     []byte
	typ     proto.PacketType
	port    uint16
	started bool
	lastSeq relwin.Seq
}

// add feeds one in-order fragment to the assembler. When a message
// completes it returns (view, owned, true). A single-fragment message
// (the latency path) returns a borrowed view aliasing the datagram
// payload, valid only until the caller returns up the receive path. A
// multi-fragment message hands its assembly buffer off outright
// (owned=true) — delivery keeps it as the message data with no final
// copy, and the next assembly starts a fresh buffer; the ownership
// transfer costs the same one allocation per message the copy would,
// and saves the memcpy of the whole message body.
func (a *liveAsm) add(d rxDatagram) (view []byte, owned, done bool) {
	f := d.hdr.Flags
	if f&proto.FlagFirst != 0 {
		if f&proto.FlagLast != 0 {
			// Complete in one fragment: bypass the assembly buffer.
			a.started = false
			a.typ, a.port, a.lastSeq = d.hdr.Type, d.hdr.Port, d.hdr.Seq
			return d.payload, false, true
		}
		a.buf = a.buf[:0]
		if cap(a.buf) == 0 && d.hdr.Len > 0 {
			a.buf = make([]byte, 0, d.hdr.Len)
		}
		a.typ = d.hdr.Type
		a.port = d.hdr.Port
		a.started = true
	}
	if !a.started {
		return nil, false, false
	}
	a.buf = append(a.buf, d.payload...)
	a.lastSeq = d.hdr.Seq
	if f&proto.FlagLast == 0 {
		return nil, false, false
	}
	a.started = false
	view = a.buf
	a.buf = nil // ownership moves to the delivered message
	return view, true, true
}

// deliver routes a completed message by type. Unless owned (an
// assembly-buffer handoff), view is borrowed — it aliases a read
// buffer — and deliver copies it only once it knows the message will
// actually be kept. Called by the socket's current reader only — which
// is what makes the occupancy check sound: on a single-socket node no
// other goroutine sends on port channels, so a non-full channel cannot
// become full under us. When the reader is a Recv caller waiting for
// this port, the first such message goes to it (s.got) and not to the
// queue: readDirect emptied the queue before reading, so queued
// messages of this burst follow it in order. seq is the message's
// closing sequence number, carried for drop attribution only.
func (n *Node) deliver(s *rxShard, src int, port uint16, typ proto.PacketType, seq relwin.Seq, view []byte, owned bool) {
	if typ == proto.TypeRemoteWrite {
		n.remoteWrite(port, view)
		return
	}
	ch := n.portChan(port)
	direct := s.want == int32(port) && !s.gotOK
	if !direct && len(ch) == cap(ch) {
		// Port queue full: the kernel-buffer analogue overran; this is an
		// application-level overrun, dropped here — before the copy. The
		// drop used to be silent, which made a slow consumer look like
		// wire loss with no counter movement anywhere; count it and
		// journal it against the message's closing frame.
		n.portDrop(src, port, seq)
		return
	}
	data := view
	if !owned {
		data = make([]byte, len(view))
		copy(data, view)
	}
	if direct {
		s.got, s.gotOK = Message{Src: src, Port: port, Data: data}, true
		return
	}
	// With several shards delivering to one port the occupancy check
	// above is advisory (another shard may fill the last slot between
	// check and send), so the send itself must not block: a blocked
	// shard loop would stall every peer hashed to it.
	select {
	case ch <- Message{Src: src, Port: port, Data: data}:
		n.rxHandoffs.Inc()
	default:
		n.portDrop(src, port, seq)
	}
}

// portDrop accounts for a completed message dropped at a full port
// queue: the counter, and a drop point on the message's closing frame
// (arg = port).
func (n *Node) portDrop(src int, port uint16, seq relwin.Seq) {
	n.portDrops.Inc()
	n.fr.Point(n.nodeName, flight.FrameID(src, seq), trace.PointDrop,
		time.Now().UnixNano(), int64(port))
}

// Region is a remote-write window (the live analogue of clic.Region),
// with its own lock so remote writes never contend with unrelated
// node state.
type Region struct {
	n *Node
	// mu guards the window buffer and write counter. Remote writes land
	// under it from the reader's post-unlock drain, so it nests inside
	// nothing lower-ranked than pmu's read side.
	//lockorder: rank=40 name=region.mu
	mu     lockcheck.Mutex
	cond   *sync.Cond
	buf    []byte
	writes int
}

const remoteWritePrefix = 8

// OpenRegion registers a remote-write window on port.
func (n *Node) OpenRegion(port uint16, size int) *Region {
	r := &Region{n: n, buf: make([]byte, size)}
	r.mu.SetRank(rankRegion, "region.mu")
	r.cond = sync.NewCond(&r.mu)
	n.pmu.Lock()
	n.regions[port] = r
	n.pmu.Unlock()
	return r
}

// remoteWrite lands a remote-write message straight in its region —
// directly from the borrowed view, with no intermediate message copy.
func (n *Node) remoteWrite(port uint16, view []byte) {
	n.pmu.RLock()
	r := n.regions[port]
	n.pmu.RUnlock()
	if r == nil || len(view) < remoteWritePrefix {
		return
	}
	offset := int(binary.BigEndian.Uint64(view[:remoteWritePrefix]))
	data := view[remoteWritePrefix:]
	r.mu.Lock()
	if offset >= 0 && offset+len(data) <= len(r.buf) {
		copy(r.buf[offset:], data)
		r.writes++
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// RemoteWrite writes data into dst's region at offset, with no receive
// call on the destination.
func (n *Node) RemoteWrite(dst int, port uint16, offset int, data []byte) error {
	payload := make([]byte, remoteWritePrefix, remoteWritePrefix+len(data))
	binary.BigEndian.PutUint64(payload, uint64(offset))
	payload = append(payload, data...)
	_, _, err := n.send(dst, port, proto.TypeRemoteWrite, 0, payload)
	return err
}

// WaitWrites blocks until at least k remote writes have landed.
func (r *Region) WaitWrites(k int) {
	r.n.rxWait(1)
	defer r.n.rxWait(-1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.writes < k && !r.n.closed.Load() {
		r.cond.Wait()
	}
}

// Snapshot copies the region contents.
func (r *Region) Snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]byte, len(r.buf))
	copy(out, r.buf)
	return out
}

// Writes returns the number of completed remote writes.
func (r *Region) Writes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes
}
