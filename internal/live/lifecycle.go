package live

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"time"

	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/trace"
)

// Connection lifecycle: a lightweight hello/bye exchange. Neither is
// required — statically configured meshes (AddPeer/Connect) work
// exactly as before — but under many-peer churn they keep the node's
// footprint proportional to the *active* peer set: hello carries the
// peer's node id and its edge so a joiner needs no out-of-band
// registration, and bye tears the channels down immediately, returning
// their pooled frames, instead of waiting out retry budgets.

// Handshake introduces this node to the peer listening at addr: it
// retries a TypeHello (Seq = our node id) until the peer's hello-ack
// arrives, registers the peer under the id the ack carries, joins the
// edge it advertised into the TX channel, and returns the peer id. The
// peer registers us symmetrically on receipt, so traffic may
// flow in both directions immediately after.
func (n *Node) Handshake(addr *net.UDPAddr, timeout time.Duration) (int, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	ap := canonAddrPort(addr.AddrPort())
	ch := make(chan helloReply, 1)
	n.lmu.Lock()
	if _, busy := n.helloWait[ap]; busy {
		n.lmu.Unlock()
		return 0, fmt.Errorf("live: handshake with %v already in progress", ap)
	}
	n.helloWait[ap] = ch
	n.lmu.Unlock()
	defer func() {
		n.lmu.Lock()
		if n.helloWait[ap] == ch {
			delete(n.helloWait, ap)
		}
		n.lmu.Unlock()
	}()
	hdr := proto.Header{Type: proto.TypeHello, Seq: uint32(n.ID)}
	var buf [proto.HeaderBytes]byte
	hdr.Put(buf[:])
	const tries = 3
	per := timeout / tries
	if per <= 0 {
		per = timeout
	}
	timer := time.NewTimer(per)
	defer timer.Stop()
	n.rxWait(1)
	defer n.rxWait(-1)
	for i := 0; i < tries; i++ {
		n.transmit(n.shards[0].conn, ap, buf[:], 0)
		select {
		case r := <-ch:
			n.registerPeer(r.peer, ap)
			if tc, err := n.txFor(r.peer); err == nil {
				tc.mu.Lock()
				n.absorbAck(tc, tc.win.Base(), r.edge)
				tc.mu.Unlock()
			}
			n.handshakes.Inc()
			n.fr.Point(n.nodeName, 0, trace.PointHello, time.Now().UnixNano(), int64(r.peer))
			return r.peer, nil
		case <-timer.C:
			timer.Reset(per)
		case <-n.done:
			return 0, ErrClosed
		}
	}
	return 0, fmt.Errorf("live: handshake with %v timed out after %v", ap, timeout)
}

// onHello handles a TypeHello from the receive path (no locks held).
// A request (no FlagLast) registers the sender and answers with our
// node id and the edge of its receive channel; a reply (FlagLast)
// completes the parked Handshake waiter for that address.
func (n *Node) onHello(s *rxShard, from netip.AddrPort, hdr proto.Header) {
	peer := int(hdr.Seq)
	if hdr.Flags&proto.FlagLast == 0 {
		// A hello from a peer whose TX channel we declared dead is a
		// reconnect: drop both stale channels so fresh sequence spaces
		// start at zero on both sides. A healthy (or absent) channel is
		// left alone — Handshake retries its hello, and a duplicate must
		// not reset a channel that just started carrying data.
		n.pmu.RLock()
		tc := n.tx[peer]
		n.pmu.RUnlock()
		if tc != nil {
			tc.mu.Lock()
			failed := tc.failed
			tc.mu.Unlock()
			if failed {
				n.dropChannels(s, peer, true)
			}
		}
		n.registerPeer(peer, from)
		rc := n.rxFor(peer)
		rc.mu.Lock()
		_, edge := n.advertiseEdge(rc)
		rc.mu.Unlock()
		reply := proto.Header{Type: proto.TypeHello, Flags: proto.FlagLast, Seq: uint32(n.ID), Len: edge}
		var buf [proto.HeaderBytes]byte
		reply.Put(buf[:])
		n.transmit(s.conn, from, buf[:], 0)
		n.handshakes.Inc()
		n.fr.Point(n.nodeName, 0, trace.PointHello, time.Now().UnixNano(), int64(peer))
		return
	}
	n.lmu.Lock()
	ch := n.helloWait[from]
	delete(n.helloWait, from)
	n.lmu.Unlock()
	if ch != nil {
		// Buffered, and the delete above made this the sole sender.
		ch <- helloReply{peer: peer, edge: hdr.Len}
	}
}

// onBye handles a peer's announcement that it is gone: its TX channel
// fails now instead of after MaxRetries of silence, and its RX channel
// goes (dropChannels). The TX channel and the address registration
// stay: bye reports the peer process's death, not a topology change,
// and a later hello from a restarted peer re-opens fresh channels (see
// onHello).
func (n *Node) onBye(s *rxShard, src int) {
	n.peerEvictions.Inc()
	n.fr.Point(n.nodeName, 0, trace.PointBye, time.Now().UnixNano(), int64(src))
	n.dropChannels(s, src, false)
}

// sendByes is Close's best-effort teardown notice: one TypeBye to
// every registered peer, so their channels to us fail now rather than
// after MaxRetries of silence.
func (n *Node) sendByes() {
	n.pmu.RLock()
	addrs := make([]netip.AddrPort, 0, len(n.peers))
	for _, ap := range n.peers {
		addrs = append(addrs, ap)
	}
	n.pmu.RUnlock()
	if len(addrs) == 0 {
		return
	}
	hdr := proto.Header{Type: proto.TypeBye, Seq: uint32(n.ID)}
	var buf [proto.HeaderBytes]byte
	hdr.Put(buf[:])
	for _, ap := range addrs {
		n.transmit(n.shards[0].conn, ap, buf[:], 0)
	}
}

// registerPeer is AddPeer keyed by netip (the receive path's native
// address form).
func (n *Node) registerPeer(id int, ap netip.AddrPort) {
	n.AddPeer(id, net.UDPAddrFromAddrPort(ap))
}

// dropChannels tears down the channels for peer (its registration
// stays). The TX channel fails like a dead peer's — blocked senders and
// SendConfirm waiters wake with ErrPeerDead, retained buffers drain to
// the pool — and with dropTx it leaves the table too, so the next send
// builds a fresh one at sequence zero. The RX channel, whose sequence
// space the peer will not continue, leaves the table and returns its
// parked frames, and it leaves the current burst's touched set: its
// data earlier in the burst is delivered, and flushAcks must not ack it.
func (n *Node) dropChannels(s *rxShard, peer int, dropTx bool) {
	n.pmu.Lock()
	tc, rc := n.tx[peer], n.rx[peer]
	delete(n.rx, peer)
	if dropTx {
		delete(n.tx, peer)
	}
	n.pmu.Unlock()
	if tc != nil {
		tc.mu.Lock()
		if !tc.failed {
			n.failChannel(tc)
		}
		tc.mu.Unlock()
	}
	if rc != nil {
		n.rxPeers.Add(-1)
		rc.mu.Lock()
		rc.reseq.DrainParked(func(_ relwin.Seq, d rxDatagram) {
			if d.fb != nil {
				d.fb.retained = false
				n.pool.Put(d.fb)
			}
		})
		if rc.inBurst {
			rc.inBurst = false
			s.touched = slices.DeleteFunc(s.touched, func(c *liveRxChan) bool { return c == rc })
		}
		rc.mu.Unlock()
	}
}
