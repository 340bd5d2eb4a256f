package live

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/lockcheck"
	"repro/internal/perfreg"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/rto"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// liveTxChan is the transmit side of one peer channel. Everything below
// mu is guarded by it; the node-level locks are never required on the
// send fast path, so senders to different peers proceed in parallel.
type liveTxChan struct {
	peer int

	// shard is the socket this channel's writes go through (fixed at
	// creation: peer id modulo shard count). Any socket could carry
	// them — all share the local address — but pinning spreads send
	// syscalls so concurrent senders don't contend on one fd.
	shard *rxShard

	// sendMu serialises whole messages: fragments of concurrent sends to
	// the same peer must not interleave in the sequence space or the
	// receiver's assembler would splice them. It is a different lock
	// from mu precisely so that holding it across the fragment loop
	// (socket writes included) never blocks ack processing — which is
	// why it is declared blockok: spanning the flush syscalls is its
	// design, not an accident, and blockunderlock exempts it.
	//lockorder: rank=10 name=sendMu blockok
	sendMu lockcheck.Mutex

	// mu guards the channel state below. It is a state lock: no socket
	// write happens under it (the NACK and RTO repairs copy their frames
	// and write after release), and no other ranked lock is taken under
	// it.
	//lockorder: rank=20 name=tc.mu
	mu       lockcheck.Mutex
	addr     netip.AddrPort // peer destination, cached from the peer table
	win      *relwin.Sender[*frameBuf]
	slotFree *sync.Cond // window space, ack progress or channel failure; on mu

	// slots is a power-of-two ring of per-sequence bookkeeping indexed
	// by seq & mask. Ring size >= window keeps every in-flight sequence
	// on a distinct slot (a span of at most Window consecutive uint32s
	// cannot collide modulo a power of two >= Window — which is also why
	// the ring must be a power of two: 2^32 is divisible by it, so slot
	// identity survives sequence wraparound).
	slots []txSlot
	mask  uint32

	// release is the persistent relwin release hook (AckFunc/Drain).
	// Allocated once here so the ack fast path creates no closures.
	release func(relwin.Seq, *frameBuf)

	// rto is a persistent timer that runs lazily: rtoDeadline (monoNs,
	// 0 = idle) is when the RTO repair is due, and ack progress
	// moves it with a plain store while the timer stays armed. rtoArmed
	// says a fire is pending, at rtoAt; the timer is Reset only when
	// none is, or when the deadline moves before rtoAt. A fire that
	// finds the deadline still ahead re-arms for the remainder, one
	// that finds it idle disarms.
	rto         *time.Timer
	rtoArmed    bool
	rtoAt       int64
	rtoDeadline int64
	ctrl        *rto.Controller
	rtoGauge    *telemetry.Gauge
	failed      bool // retry budget exhausted; senders get ErrPeerDead

	// failBase is the window base when the channel failed, before the
	// drain moved it: a SendConfirm waiter whose frame is not below it
	// was never acked.
	failBase relwin.Seq

	// sampleFloor is the Karn's-rule watermark: sequences below it were
	// retransmitted, so their ack latencies must not feed the estimator.
	sampleFloor relwin.Seq

	// headResent says the frame at the window base has been resent since
	// the base last moved: one NACK repairs one hole once, and a repeat
	// falls through to the RTO. Guarded by mu.
	headResent bool

	// capFrames is the resolved per-peer in-flight cap (0 = window only)
	// — the pool-isolation bound: at most this many pooled buffers can
	// be retained by this channel's window at once.
	capFrames int

	// edge is the serial maximum of the edges the peer's acks carried:
	// it may be sent frames below it. It starts at Window, what the
	// peer's resequencer holds. asked is one past the last frame that
	// carried FlagAckReq; a request is outstanding while the window base
	// is below it. Both guarded by mu.
	edge  relwin.Seq
	asked relwin.Seq

	// lastProgressNs is when the cumulative ack last advanced (channel
	// creation time until then), on the wall clock; health snapshots
	// expose it and the watchdog's window-stall deadline runs against
	// it. Guarded by mu.
	lastProgressNs int64

	// Fragment staging for coalesced writes, guarded by sendMu: the
	// fragmentation loop stages up to Node.txBurst fragments, pushes
	// them under one hold of mu and flushes them with one write (on
	// Linux) — the TX mirror of the receive burst. stageFb[:stageCnt]
	// are pushed (their stageHdr holds the sequence) and pinned, the
	// rest up to stageLen wait for window space; both are zero between
	// send calls.
	stageFb  [gsoMaxSegs]*frameBuf
	stageHdr [gsoMaxSegs]proto.Header
	stageFid [gsoMaxSegs]uint64
	stageCnt int
	stageLen int
	batcher  *txBatcher

	// stageRoom is the room() the last push left. Staging stops there
	// (one fragment at least), so a sender waiting for acks holds one
	// unpushed buffer. Written under sendMu and mu, read under sendMu.
	stageRoom int
}

// The TX coalescing burst is what one GSO superframe can carry: at most
// gsoMaxSegs fragments (the kernel's UDP_MAX_SEGMENTS before 6.9) and
// gsoMaxBytes in all (clear of the 64 KiB skb payload ceiling). At MTU
// 1500 that is 43 fragments, so a 64 KiB message (45) leaves in two
// writes and — the receiver's sockets take superframes unsplit —
// arrives as two socket-queue entries; at MTU 9000 it is 7.
const (
	gsoMaxSegs  = 64
	gsoMaxBytes = 65000
)

// txSlot remembers one in-flight datagram's first-send time (for the
// ack-latency histogram and the RTT estimator — replacing the per-push
// map insert/delete churn of a sentAt map) and the buffer-pin handshake
// with the socket writer.
type txSlot struct {
	seq    relwin.Seq
	sentNs int64

	// pinned marks the buffer as being written to the socket outside the
	// lock; if the ack overtakes the write, the release hook parks the
	// buffer in released instead of recycling it, and the writer returns
	// it when done.
	pinned   bool
	released *frameBuf
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

func newTxChan(n *Node, peer int, addr netip.AddrPort) *liveTxChan {
	tc := &liveTxChan{
		peer:  peer,
		shard: n.shardFor(peer),
		addr:  addr,
		edge:  relwin.Seq(n.cfg.Window),
		win:   relwin.NewSender[*frameBuf](n.cfg.Window),
		ctrl: rto.New(rto.Config{
			Initial:    n.cfg.RetransmitTimeout.Nanoseconds(),
			Min:        n.cfg.RTOMin.Nanoseconds(),
			Max:        n.cfg.RTOMax.Nanoseconds(),
			MaxRetries: n.cfg.MaxRetries,
		}),
	}
	if n.cfg.PeerInFlight > 0 && n.cfg.PeerInFlight < n.cfg.Window {
		tc.capFrames = n.cfg.PeerInFlight
	}
	tc.stageRoom = n.cfg.Window
	tc.sendMu.SetRank(rankSendMu, "sendMu")
	tc.mu.SetRank(rankChanMu, "tc.mu")
	tc.lastProgressNs = time.Now().UnixNano()
	ring := nextPow2(n.cfg.Window)
	tc.slots = make([]txSlot, ring)
	tc.mask = uint32(ring - 1)
	tc.batcher = newTxBatcher()
	tc.rtoGauge = n.tel.Gauge("live_rto_ns",
		"current adaptive retransmission timeout for this channel",
		telemetry.L("node", fmt.Sprint(n.ID)), telemetry.L("peer", fmt.Sprint(peer)))
	tc.publishRTO()
	tc.slotFree = sync.NewCond(&tc.mu)
	// The persistent timer is created stopped; restartRTO only ever
	// Resets it.
	tc.rto = time.AfterFunc(time.Hour, func() { n.fireRTO(tc) })
	tc.rto.Stop()
	tc.release = func(seq relwin.Seq, fb *frameBuf) {
		// Runs with tc.mu held, from AckFunc (ack progress) or Drain
		// (channel failure). The slot still belongs to seq: recycling it
		// requires window space, which only this very release creates.
		fb.retained = false
		if slot := &tc.slots[seq&tc.mask]; slot.seq == seq && slot.pinned {
			slot.released = fb
			return
		}
		n.pool.Put(fb)
	}
	return tc
}

// publishRTO refreshes the channel's live_rto_ns gauge from the
// controller. Called with tc.mu held after any controller mutation.
func (tc *liveTxChan) publishRTO() { tc.rtoGauge.Set(tc.ctrl.RTO()) }

// limit is the send limit counted from the window base: min(window,
// per-peer cap, the peer's edge). Called with tc.mu held.
func (tc *liveTxChan) limit() int {
	l := min(tc.win.Window(), int(tc.edge-tc.win.Base()))
	if tc.capFrames > 0 {
		l = min(l, tc.capFrames)
	}
	return l
}

// room is how many more frames may enter the window now. Called with
// tc.mu held.
func (tc *liveTxChan) room() int { return tc.limit() - tc.win.InFlight() }

// effectiveWindow is the send limit health snapshots report as the
// channel's Window, so the watchdog's window-stall condition
// (InFlight >= Window) fires for capped and edge-bound channels too. It
// is floored at 1 and at the in-flight count, so InFlight <= Window
// holds for snapshot consumers. Called with tc.mu held.
func (tc *liveTxChan) effectiveWindow() int {
	return max(tc.limit(), tc.win.InFlight(), 1)
}

// Send reliably transmits data to (dst, port), blocking on window space.
func (n *Node) Send(dst int, port uint16, data []byte) error {
	_, _, err := n.send(dst, port, proto.TypeData, 0, data)
	return err
}

// SendConfirm transmits data and blocks until the peer's confirmation of
// reception arrives (§5's send-with-confirmation primitive). The
// confirmation is the cumulative ack: the last fragment asks for one
// (FlagAckReq), and SendConfirm returns once the window base has passed
// that fragment. A lost ack is repaired like a lost frame: the RTO
// resends the frame, and the peer re-acks the duplicate. It returns
// ErrPeerDead if the channel fails before the ack lands, and ErrClosed
// if the node closes first.
func (n *Node) SendConfirm(dst int, port uint16, data []byte) error {
	tc, seq, err := n.send(dst, port, proto.TypeData, proto.FlagAckReq, data)
	if err != nil {
		return err
	}
	n.rxWait(1)
	defer n.rxWait(-1)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for {
		base := tc.win.Base()
		if tc.failed {
			base = tc.failBase // the drain moved the base without an ack
		}
		switch {
		case relwin.Before(seq, base):
			return nil
		case tc.failed:
			return ErrPeerDead
		case n.closed.Load():
			return ErrClosed
		}
		tc.slotFree.Wait()
	}
}

// send fragments and transmits one message, returning its channel and
// the last fragment's sequence number. flags are set on the last
// fragment. With profiling armed (perfreg.Enable) the
// whole call runs under the module-send pprof stage label, with the
// socket flushes nested under send-syscall; the disabled path is one
// atomic load and builds no closure, keeping the AllocsPerRun guards
// honest.
func (n *Node) send(dst int, port uint16, typ proto.PacketType, flags uint8, data []byte) (*liveTxChan, relwin.Seq, error) {
	if perfreg.Enabled() {
		var tc *liveTxChan
		var seq relwin.Seq
		var err error
		perfreg.DoCtx(context.Background(), trace.SpanModuleSend, func(ctx context.Context) {
			tc, seq, err = n.sendMsg(ctx, dst, port, typ, flags, data)
		})
		return tc, seq, err
	}
	return n.sendMsg(context.Background(), dst, port, typ, flags, data)
}

// sendMsg is send's body.
//
// The fast path is allocation-free and coalesced, and its bookkeeping
// runs once per burst, not once per fragment: up to Node.txBurst
// fragments (no more than the window had room for at the last push)
// are staged into pooled buffers with headers and payload in place
// before the channel lock is taken, a fragment with room behind the
// header carrying the ack the reverse channel owes (takeAck); one hold
// of the lock then pushes what the window takes (pushStaged: one clock
// read, one deadline store); the socket writes happen after the lock is
// dropped, with each slot pinned so an ack racing the write cannot
// recycle the buffer out from under the syscall. ctx carries the
// enclosing pprof stage labels for flushTx to restore after its nested
// stage.
func (n *Node) sendMsg(ctx context.Context, dst int, port uint16, typ proto.PacketType, flags uint8, data []byte) (*liveTxChan, relwin.Seq, error) {
	if n.closed.Load() {
		return nil, 0, ErrClosed
	}
	tc, err := n.txFor(dst)
	if err != nil {
		return nil, 0, err
	}
	tc.sendMu.Lock()
	defer tc.sendMu.Unlock()
	maxP := n.maxPayload()
	total := len(data)
	off := 0
	var owed *liveRxChan // the reverse channel whose ack a staged fragment took
	last := false
	for {
		for tc.stageLen < n.txBurst && tc.stageLen-tc.stageCnt < max(1, tc.stageRoom) && !last {
			end := min(off+maxP, total)
			last = end == total
			fb := n.pool.Get()
			hdr := proto.Header{Type: typ, Port: port, Len: uint32(total)}
			if off == 0 {
				hdr.Flags |= proto.FlagFirst
			}
			if last {
				hdr.Flags |= proto.FlagLast | flags
			}
			body := proto.HeaderBytes
			if body+proto.AckExtBytes+(end-off) <= n.cfg.MTU {
				var cum, edge relwin.Seq
				if owed, cum, edge = n.takeAck(dst); owed != nil {
					hdr.Flags |= proto.FlagAck
					proto.PutAckExt(fb.b[body:], cum, edge)
					body += proto.AckExtBytes
				}
			}
			fb.n = body + copy(fb.b[body:], data[off:end])
			tc.stageFb[tc.stageLen], tc.stageHdr[tc.stageLen] = fb, hdr
			tc.stageLen++
			off = end
		}

		tc.mu.Lock()
		// A channel failure broadcasts slotFree, so senders blocked on
		// window space wake here and surface ErrPeerDead. room also
		// folds in the per-peer cap and the peer's edge — an edge advance
		// broadcasts slotFree the same way ack progress does. Whatever
		// was pushed must hit the wire before sleeping: the acks that free
		// the window can only come from those bytes, and the last pushed
		// frame asked for them. So must the ack a staged fragment took:
		// the peer may be blocked on its own window until it arrives.
		for tc.room() <= 0 && !tc.failed && !n.closed.Load() {
			if tc.stageCnt > 0 {
				addr := tc.addr
				tc.mu.Unlock()
				n.flushTx(ctx, tc, addr)
				tc.mu.Lock()
				continue
			}
			if rc := owed; rc != nil {
				owed = nil
				tc.mu.Unlock()
				n.ackAlone(rc)
				tc.mu.Lock()
				continue
			}
			n.rxWait(1)
			tc.slotFree.Wait()
			n.rxWait(-1)
		}
		if n.closed.Load() || tc.failed {
			err := ErrClosed
			if tc.failed && !n.closed.Load() {
				err = ErrPeerDead
			}
			addr := tc.addr
			tc.mu.Unlock()
			n.flushTx(ctx, tc, addr) // unpin whatever was pushed
			for i := range tc.stageLen {
				fb := tc.stageFb[i] // staged, never pushed
				tc.stageFb[i] = nil
				n.pool.Put(fb)
			}
			tc.stageLen = 0
			return nil, 0, err
		}
		n.pushStaged(tc)
		addr := tc.addr
		tc.mu.Unlock()

		if !last || tc.stageCnt < tc.stageLen {
			// Flush a full superframe; a full window is flushed before
			// the sender waits. Otherwise top the stage up and push again,
			// so an ack-clocked sender still writes superframes.
			if tc.stageCnt == n.txBurst {
				n.flushTx(ctx, tc, addr)
			}
			continue
		}
		seq := tc.stageHdr[tc.stageCnt-1].Seq
		n.flushTx(ctx, tc, addr)
		return tc, seq, nil
	}
}

// pushStaged moves staged fragments into the window while it has room,
// each with its sequence, encoded header and slot, pinned for the
// flush. One clock read stamps every slot it fills (and starts each
// flight module-send span), and the RTO is armed once. Only the sender
// knows when it will run out of window, so it asks for the acks it
// needs (FlagAckReq): on the frame that brings in-flight to half the
// limit when no request is outstanding, so the ack is back before the
// window fills, and on the frame that fills it. A frame staged with the
// flag (a SendConfirm's last fragment) is recorded as a request too.
// Called with tc.mu held.
func (n *Node) pushStaged(tc *liveTxChan) {
	now := time.Now()
	nowNs := now.UnixNano()
	limit := tc.limit()
	room := limit - tc.win.InFlight()
	for ; room > 0 && tc.stageCnt < tc.stageLen; room-- {
		i := tc.stageCnt
		fb, seq := tc.stageFb[i], tc.win.NextSeq()
		hdr := &tc.stageHdr[i]
		hdr.Seq = seq
		if room == 1 || (!relwin.Before(tc.win.Base(), tc.asked) && 2*(tc.win.InFlight()+1) >= limit) {
			hdr.Flags |= proto.FlagAckReq
		}
		if hdr.Flags&proto.FlagAckReq != 0 {
			tc.asked = seq + 1
		}
		hdr.Put(fb.b)
		if n.fr != nil {
			// Both ends derive the frame id from (sender, sequence), so
			// sender-side and receiver-side spans stitch without any extra
			// bytes on the wire.
			tc.stageFid[i] = flight.FrameID(n.ID, seq)
			n.fr.Span(n.nodeName, tc.stageFid[i], trace.SpanModuleSend, nowNs, time.Now().UnixNano())
		}
		fb.retained = true
		tc.win.Push(fb)
		slot := &tc.slots[seq&tc.mask]
		slot.seq, slot.sentNs, slot.pinned, slot.released = seq, nowNs, true, nil
		tc.stageCnt = i + 1
	}
	tc.stageRoom = room
	n.armRTO(tc, monoNs(now))
}

// takeAck hands the ack that the receive channel from peer owes to a
// data frame about to leave for peer: if frames were delivered since
// that channel last acked, or one asked for an ack, it returns the
// channel with its cumulative ack and edge and clears the debt, so the
// burst flush sends no datagram for it (rc is nil when nothing is
// owed). Holes are untouched: their NACKs still go out from flushAcks.
// Called by sendMsg under the channel's sendMu, with no channel lock
// held (tc.mu and rc.mu share a rank and never nest).
func (n *Node) takeAck(peer int) (rc *liveRxChan, cum, edge relwin.Seq) {
	n.pmu.RLock()
	rc = n.rx[peer]
	n.pmu.RUnlock()
	if rc == nil {
		return nil, 0, 0
	}
	rc.mu.Lock()
	owed := rc.sinceAck > 0 || rc.ackNow
	if owed {
		rc.sinceAck, rc.ackNow = 0, false
		cum, edge = n.advertiseEdge(rc)
	}
	rc.mu.Unlock()
	if !owed {
		return nil, 0, 0
	}
	n.piggybackAcks.Inc()
	return rc, cum, edge
}

// flushTx writes the pushed fragments to addr and completes the pin
// handshake. Every node writes a burst the same way (flushWires: the
// fault stage, then the platform burst writer — one GSO sendmsg or one
// sendmmsg on Linux). Afterwards every flushed slot is unpinned under
// a single lock acquisition: if the
// cumulative ack (or a channel failure) released a buffer mid-write,
// the release hook parked it on its slot and it is recycled here; if a
// slot was already recycled by a later push, the park was lost — but
// then the window no longer retains the buffer and the writer holds
// the only reference, so it is recycled directly. Fragments staged
// behind the flushed ones move to the front for the next push. addr is
// read in the critical section that pushed the fragments. Guarded by
// sendMu. ctx carries the caller's pprof stage labels (module-send when
// sendMsg is profiled) so the nested send-syscall stage restores them
// on exit.
func (n *Node) flushTx(ctx context.Context, tc *liveTxChan, addr netip.AddrPort) {
	cnt := tc.stageCnt
	if cnt == 0 {
		return
	}
	tc.stageCnt = 0
	if perfreg.Enabled() {
		perfreg.Do(ctx, trace.SpanSendSyscall, func() { n.flushWires(tc, addr, cnt) })
	} else {
		n.flushWires(tc, addr, cnt)
	}
	var rel [gsoMaxSegs]*frameBuf
	nrel := 0
	tc.mu.Lock()
	for i := 0; i < cnt; i++ {
		fb, seq := tc.stageFb[i], tc.stageHdr[i].Seq
		slot := &tc.slots[seq&tc.mask]
		if slot.seq == seq {
			slot.pinned = false
			if slot.released != nil {
				rel[nrel] = slot.released
				nrel++
				slot.released = nil
			}
		} else if !fb.retained {
			rel[nrel] = fb
			nrel++
		}
	}
	tc.mu.Unlock()
	for i := 0; i < nrel; i++ {
		n.pool.Put(rel[i])
	}
	rest := copy(tc.stageFb[:], tc.stageFb[cnt:tc.stageLen])
	copy(tc.stageHdr[:], tc.stageHdr[cnt:tc.stageLen])
	clear(tc.stageFb[rest:tc.stageLen])
	tc.stageLen = rest
}

// flushWires is the socket-write half of flushTx. The burst passes the
// fault stage, frame by frame (a clean node without a flight recorder
// skips it): a lost frame is left out, a duplicate appears twice in a
// row, and each kept frame's wire span opens right before the batch
// write. What the wire is to carry goes to the burst writer in chunks
// of gsoMaxSegs, since duplicates can lengthen a burst.
func (n *Node) flushWires(tc *liveTxChan, addr netip.AddrPort, cnt int) {
	fbs := tc.stageFb[:cnt]
	if n.faulty || n.fr != nil {
		var kept [2 * gsoMaxSegs]*frameBuf
		fbs = kept[:0]
		for i, fb := range tc.stageFb[:cnt] {
			for range n.fault(tc.shard.conn, addr, fb.b[:fb.n], tc.stageFid[i]) {
				n.flightWire(tc.stageFid[i])
				fbs = append(fbs, fb)
			}
		}
	}
	for len(fbs) > 0 {
		k := min(len(fbs), gsoMaxSegs)
		n.socketWrites.Addn(int64(writeBurst(tc, addr, fbs[:k])))
		n.framesSent.Addn(int64(k))
		fbs = fbs[k:]
	}
}

// transmit writes one datagram through c (the caller's shard socket —
// every shard shares the node's address, so any socket may carry any
// datagram): acks, NACKs, repairs, hello and bye, each through the
// fault stage as a burst of one.
func (n *Node) transmit(c *net.UDPConn, addr netip.AddrPort, dgram []byte, fid uint64) {
	for range n.fault(c, addr, dgram, fid) {
		n.writeOne(c, addr, dgram, fid)
	}
}

// writeOne writes one datagram with a syscall of its own.
func (n *Node) writeOne(c *net.UDPConn, addr netip.AddrPort, dgram []byte, fid uint64) {
	n.framesSent.Inc()
	n.socketWrites.Inc()
	n.flightWire(fid)
	c.WriteToUDPAddrPort(dgram, addr) //nolint:errcheck // lossy channel by design
}

// reorderDelay bounds the random delay reorder injection adds to a
// datagram: far above a loopback round trip, so later traffic overtakes
// it, and under the default RTOMin.
const reorderDelay = 2 * time.Millisecond

// fault is the fault stage for one datagram about to be written: it
// draws under imu, in the order a seed has always drawn them — loss,
// then dup, then reorder per write — counts an injected loss (with its
// flight drop point) or duplicate, and returns how many writes the
// caller issues now. A reordered write is deferred by a random delay up
// to reorderDelay, from a pooled copy of dgram (the caller reclaims its
// buffer on return); the timer touches only the socket, the pool and
// atomic counters, so it is safe even after Close. A clean node draws
// nothing and takes no lock.
func (n *Node) fault(c *net.UDPConn, addr netip.AddrPort, dgram []byte, fid uint64) int {
	if !n.faulty {
		return 1
	}
	n.imu.Lock()
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.imu.Unlock()
		n.dropsInjected.Inc()
		if fid != 0 {
			n.fr.Point(n.nodeName, fid, trace.PointDrop, time.Now().UnixNano(), int64(len(dgram)))
		}
		return 0
	}
	var delays [2]time.Duration
	writes := 1
	if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
		writes = 2
		n.dupsInjected.Inc()
	}
	for i := range writes {
		if n.cfg.ReorderRate > 0 && n.rng.Float64() < n.cfg.ReorderRate {
			delays[i] = time.Duration(n.rng.Int63n(int64(reorderDelay))) + time.Microsecond
		}
	}
	n.imu.Unlock()
	now := 0
	for _, d := range delays[:writes] {
		if d == 0 {
			now++
			continue
		}
		n.reordersInjected.Inc()
		cp := n.pool.Get()
		cp.n = copy(cp.b, dgram) // a datagram never exceeds the pool's class
		time.AfterFunc(d, func() {
			n.writeOne(c, addr, cp.b[:cp.n], fid)
			n.pool.Put(cp)
		})
	}
	return now
}

// flightWire opens the wire span at the moment the datagram actually hits
// the socket. Begin is idempotent per frame, so an injected duplicate or a
// retransmission of a still-open frame extends the original span — which
// then truthfully covers the loss and recovery.
func (n *Node) flightWire(fid uint64) {
	if fid != 0 {
		n.fr.Begin(n.nodeName, fid, trace.SpanWire, time.Now().UnixNano())
	}
}

// monoEpoch anchors the monotonic nanosecond clock the RTO deadlines
// run on (monoNs): unlike UnixNano, a wall-clock step cannot move them.
var monoEpoch = time.Now()

// monoNs is t on the monotonic clock, in ns since monoEpoch.
func monoNs(t time.Time) int64 { return int64(t.Sub(monoEpoch)) }

// armRTO starts the channel's RTO clock at nowNs (monoNs) if it is idle
// and frames are in flight: the RTO runs from the first send after
// idle, and a send while it runs leaves it alone. Called with tc.mu
// held.
func (n *Node) armRTO(tc *liveTxChan, nowNs int64) {
	if tc.rtoDeadline != 0 || tc.failed || tc.win.InFlight() == 0 {
		return
	}
	tc.restartRTO(nowNs)
}

// restartRTO moves the RTO deadline to nowNs plus the adaptive timeout.
// The deadline is a plain store; the timer is Reset only when no fire
// is pending or the pending one would come too late. Called with tc.mu
// held.
func (tc *liveTxChan) restartRTO(nowNs int64) {
	d := nowNs + tc.ctrl.RTO()
	tc.rtoDeadline = d
	if !tc.rtoArmed || d < tc.rtoAt {
		tc.rto.Reset(time.Duration(d - nowNs))
		tc.rtoArmed, tc.rtoAt = true, d
	}
}

// stopRTO disarms the timer outright: channel failure and Close, after
// which no fire may find work. Called with tc.mu held.
func (tc *liveTxChan) stopRTO() {
	if tc.rtoArmed {
		tc.rto.Stop()
		tc.rtoArmed = false
	}
	tc.rtoDeadline = 0
}

// fireRTO is the timer callback entry: it tags the timer goroutine
// with the rto-timer pprof stage when profiling is armed (retransmit
// cost then shows up as its own row in the attribution table, not
// inside some unlabeled timer goroutine) and runs the retransmission.
func (n *Node) fireRTO(tc *liveTxChan) {
	if perfreg.Enabled() {
		perfreg.Do(context.Background(), perfreg.StageRTOTimer, func() { n.rtoExpire(tc) })
		return
	}
	n.rtoExpire(tc)
}

// rtoExpire is the timeout form of headRepair: the repairs rtoRepair
// chose are written once tc.mu is released, from pooled copies.
func (n *Node) rtoExpire(tc *liveTxChan) {
	if n.closed.Load() {
		return
	}
	tc.mu.Lock()
	repairs, seqs := n.rtoRepair(tc)
	addr := tc.addr
	tc.mu.Unlock()
	for i, fb := range repairs {
		if fb != nil {
			n.resend(tc, addr, seqs[i], fb)
		}
	}
}

// rtoRepair is an RTO expiry's decision. An expiry in a window where no
// frame asked for an ack (tc.asked is not past the base) is a probe,
// not evidence of loss: the receiver rightly holds an ack nobody asked
// for until reverse data can carry it, so the expiry is what asks, and
// it neither backs off nor spends the retry budget. Any other expiry
// backs off, or fails the channel once the budget is spent and resends
// nothing. Both return pooled copies of two frames: the window's head,
// and the newest frame if that is another one, each with FlagAckReq so
// the peer acks the burst that brings it, and both record that request
// in tc.asked, so the next silent expiry backs off. Those two are all a
// timeout has to resend, because the receiver parks a full window
// behind a hole: a lost head (a lost NACK or a lost repair) is filled; a
// lost tail is filled, or the hole in front of it comes into view and
// draws a NACK; and a copy of a frame that had arrived draws a prompt
// re-ack, which is all a lost or withheld ack needs. The NACK path
// repairs everything else. Like headRepair it marks the head resent and
// moves the Karn watermark, here past everything sent. Called with
// tc.mu held.
func (n *Node) rtoRepair(tc *liveTxChan) (repairs [2]*frameBuf, seqs [2]relwin.Seq) {
	tc.rtoArmed = false
	if tc.failed || tc.rtoDeadline == 0 {
		return // channel died, or everything was acked since the arming
	}
	nowNs := monoNs(time.Now())
	if rem := tc.rtoDeadline - nowNs; rem > 0 {
		// Progress moved the deadline after this fire was armed.
		tc.rto.Reset(time.Duration(rem))
		tc.rtoArmed, tc.rtoAt = true, tc.rtoDeadline
		return
	}
	tc.rtoDeadline = 0
	unacked, base := tc.win.Unacked()
	if len(unacked) == 0 {
		return
	}
	if !relwin.Before(base, tc.asked) {
		n.ackProbes.Inc()
	} else if tc.ctrl.OnTimeout() {
		n.failChannel(tc)
		return
	} else {
		n.rtoBackoffs.Inc()
		if n.fr != nil {
			n.fr.Point(n.nodeName, 0, trace.PointRTOBackoff,
				time.Now().UnixNano(), tc.ctrl.RTO())
		}
		tc.publishRTO() // the timeout doubled
	}
	repairs[0], seqs[0] = n.repairCopy(unacked[0], proto.FlagAckReq), base
	if last := len(unacked) - 1; last > 0 {
		repairs[1], seqs[1] = n.repairCopy(unacked[last], proto.FlagAckReq), base+relwin.Seq(last)
	}
	tc.headResent = true
	tc.asked = tc.win.NextSeq()
	// Karn's rule: acks for anything below this watermark are ambiguous.
	tc.sampleFloor = tc.asked
	n.armRTO(tc, nowNs)
	return repairs, seqs
}

// repairCopy returns a pooled copy of a window frame, with flags added
// to its header, for a repair written after tc.mu is released: the copy
// is not the window's, so the write needs no pin handshake with a
// concurrent flushTx, and the ack path may recycle the original
// meanwhile.
func (n *Node) repairCopy(fb *frameBuf, flags uint8) *frameBuf {
	c := n.pool.Get()
	c.n = copy(c.b, fb.b[:fb.n])
	if flags != 0 {
		hdr, _, _ := proto.DecodeHeader(c.b[:c.n]) // a window frame holds a whole header
		hdr.Flags |= flags
		hdr.Put(c.b)
	}
	return c
}

// resend writes the repair copy fb of frame seq to addr, with no lock
// held, and returns the copy to the pool.
func (n *Node) resend(tc *liveTxChan, addr netip.AddrPort, seq relwin.Seq, fb *frameBuf) {
	n.retransmits.Inc()
	var fid uint64
	if n.fr != nil {
		fid = flight.FrameID(n.ID, seq)
		n.fr.Point(n.nodeName, fid, trace.PointRetransmit,
			time.Now().UnixNano(), int64(fb.n))
	}
	n.transmit(tc.shard.conn, addr, fb.b[:fb.n], fid)
	n.pool.Put(fb)
}

// failChannel declares a peer dead: blocked senders and SendConfirm
// waiters wake with ErrPeerDead, the window base is kept in failBase,
// and the window is drained so its retained buffers return to the pool
// instead of leaking with the dead channel. Called with tc.mu held.
func (n *Node) failChannel(tc *liveTxChan) {
	tc.failed = true
	tc.failBase = tc.win.Base()
	n.channelFailures.Inc()
	if n.fr != nil {
		n.fr.Point(n.nodeName, 0, trace.PointChannelFailed,
			time.Now().UnixNano(), int64(tc.peer))
	}
	tc.stopRTO()
	tc.win.Drain(tc.release)
	tc.slotFree.Broadcast()
}

// onAck processes a cumulative acknowledgement from peer — a TypeAck,
// or a TypeNack, which is the same frame with "and the sequence I am
// acknowledging up to is missing while later ones are parked" attached.
// The cum and edge are absorbed identically; a NACK naming the current
// window base then has that one frame resent (headRepair), written once
// tc.mu is released.
func (n *Node) onAck(tc *liveTxChan, hdr proto.Header) {
	tc.mu.Lock()
	n.absorbAck(tc, hdr.Seq, hdr.Len)
	var repair *frameBuf
	if hdr.Type == proto.TypeNack {
		if n.fr != nil {
			n.fr.Point(n.nodeName, 0, trace.PointNackRecv, time.Now().UnixNano(), int64(hdr.Seq))
		}
		repair = n.headRepair(tc, hdr.Seq)
	}
	addr := tc.addr
	tc.mu.Unlock()
	if repair != nil {
		n.resend(tc, addr, hdr.Seq, repair)
	}
}

// absorbAck is the cumulative half of onAck, which a data frame's
// piggy-backed ack goes through too. It joins the ack into the channel:
// the edge rises to the serial maximum of the edges seen, an edge
// beyond next + Window is corrupt and ignored, and relwin ignores a cum
// that is stale or beyond anything sent, so a stale, duplicated or
// reordered ack moves nothing back. Then it releases the acknowledged
// prefix back to the pool, takes the ack's one latency sample, resets
// the retry budget, restarts the RTO deadline for whatever is still in
// flight, and wakes window-blocked senders — on an edge advance alone
// too. Called with tc.mu held.
func (n *Node) absorbAck(tc *liveTxChan, cum, edge relwin.Seq) {
	grew := relwin.Before(tc.edge, edge) && !relwin.Before(tc.win.NextSeq()+relwin.Seq(tc.win.Window()), edge)
	if grew {
		tc.edge = edge
	}
	oldest := tc.win.Base()
	if tc.win.AckFunc(cum, tc.release) == 0 {
		if grew {
			tc.slotFree.Broadcast()
		}
		return
	}
	now := time.Now()
	nowNs := now.UnixNano()
	// One sample per ack, from the oldest frame it released: that frame
	// waited longest, and its wait is the one the RTO must cover. The
	// slot still holds it — only a push reuses a slot, and none can run
	// under tc.mu. Karn's rule: a frame below the watermark was sent
	// twice, so which send this ack answers is ambiguous, and the ack
	// gives no sample.
	if slot := &tc.slots[oldest&tc.mask]; slot.seq == oldest && !relwin.Before(oldest, tc.sampleFloor) {
		if lat := nowNs - slot.sentNs; lat > 0 {
			n.ackLatency.Observe(float64(lat))
			tc.ctrl.Observe(lat)
		}
	}
	tc.ctrl.OnProgress()
	tc.headResent = false
	tc.lastProgressNs = nowNs
	tc.publishRTO()
	if tc.win.InFlight() == 0 {
		tc.rtoDeadline = 0 // a pending fire finds the channel idle and disarms
	} else {
		tc.restartRTO(monoNs(now))
	}
	tc.slotFree.Broadcast()
}

// headRepair is the fast-retransmit decision for a NACK whose
// cumulative ack is cum, taken after absorbAck: if cum is the window
// base, a frame is in flight there and this base has not been repaired
// already, it returns a pooled copy of that one frame for the caller to
// write once tc.mu is released (nil otherwise). Only the head goes out:
// the receiver parks up to a full window behind a hole, so everything
// after the head that was not itself lost is already there, and a
// second hole draws its own NACK when this one fills. The repair is not
// a timeout — no backoff — but the frame has now been sent twice, so
// the Karn watermark moves past it and the RTO restarts from now. A
// lost NACK or lost repair leaves headResent set, and the RTO repair
// (rtoRepair) resends the head. Called with tc.mu held.
func (n *Node) headRepair(tc *liveTxChan, cum relwin.Seq) *frameBuf {
	unacked, base := tc.win.Unacked()
	if len(unacked) == 0 || base != cum || tc.headResent {
		return nil
	}
	tc.headResent = true
	if floor := base + 1; relwin.Before(tc.sampleFloor, floor) {
		tc.sampleFloor = floor
	}
	tc.restartRTO(monoNs(time.Now()))
	n.fastRetransmits.Inc()
	return n.repairCopy(unacked[0], 0)
}
