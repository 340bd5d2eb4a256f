package live

import (
	"sort"
	"time"

	"repro/internal/health"
)

// HealthSnapshot captures the node's full per-peer/channel state for
// the health layer (/debug/clic, clicstat, the stall watchdog). It is
// lock-narrow by construction: the registration table is read under one
// RLock to collect the channel pointers, then each channel is visited
// under its own mutex — the same sharding the datapath uses, so a
// snapshot of a busy node briefly touches each channel instead of
// freezing the node. Counters are atomics and read without any lock.
func (n *Node) HealthSnapshot() health.NodeSnapshot {
	// Puts read before gets: every Put's Get bumped the counter first,
	// so this order keeps Outstanding ≥ 0 under concurrent recycling
	// (the reverse order can observe a put whose get it missed).
	puts := n.poolPuts.Value()
	gets := n.poolGets.Value()
	snap := health.NodeSnapshot{
		Node:       n.nodeName,
		CapturedNs: time.Now().UnixNano(),
		MTU:        n.cfg.MTU,
		Window:     n.cfg.Window,
		SockBuf:    sockBufBytes,
		Pool: &health.PoolSnapshot{
			Gets:        gets,
			Puts:        puts,
			Allocs:      n.poolAllocs.Value(),
			Outstanding: gets - puts,
		},
		Counters: map[string]int64{
			health.CounterTxFrames: n.framesSent.Value(),
			"rx_frames":            n.framesRecv.Value(),
			"retransmits":          n.retransmits.Value(),
			"acks_sent":            n.acksSent.Value(),
			"piggyback_acks":       n.piggybackAcks.Value(),
			"ack_probes":           n.ackProbes.Value(),
			"loss_injected":        n.dropsInjected.Value(),
			"dups_injected":        n.dupsInjected.Value(),
			"rx_dup_frames":        n.dupFrames.Value(),
			"rto_backoffs":         n.rtoBackoffs.Value(),
			"channel_failures":     n.channelFailures.Value(),
			"handshakes":           n.handshakes.Value(),
			"peer_evictions":       n.peerEvictions.Value(),
			"nacks_sent":           n.nacksSent.Value(),
			"fast_retransmits":     n.fastRetransmits.Value(),
			"unknown_frames":       n.unknownFrames.Value(),
			"port_drops":           n.portDrops.Value(),
		},
	}
	for _, s := range n.shards {
		sh := health.ShardSnapshot{
			Shard:  s.id,
			Bursts: s.bursts.Value(),
			Frames: s.frames.Value(),
			Direct: s.direct.Value(),
		}
		snap.Counters[health.CounterRxWakeups] += sh.Bursts // every node has a shard
		snap.Counters["rx_sock_drops"] += s.br.drops.Value()
		snap.Shards = append(snap.Shards, sh)
	}
	n.pmu.RLock()
	txs := make([]*liveTxChan, 0, len(n.tx))
	for _, tc := range n.tx {
		txs = append(txs, tc)
	}
	rxs := make([]*liveRxChan, 0, len(n.rx))
	for _, rc := range n.rx {
		rxs = append(rxs, rc)
	}
	n.pmu.RUnlock()
	for _, tc := range txs {
		tc.mu.Lock()
		// Window reports the effective send limit — min(window, per-peer
		// cap, the peer's edge) — so the watchdog's window-stall
		// condition (InFlight >= Window) fires for capped and edge-bound
		// channels too, not only window-full ones.
		snap.Channels = append(snap.Channels, health.ChannelSnapshot{
			Peer:           tc.peer,
			Dir:            "tx",
			Window:         tc.effectiveWindow(),
			Credit:         int(tc.edge - tc.win.Base()),
			InFlightCap:    tc.capFrames,
			InFlight:       tc.win.InFlight(),
			NextSeq:        tc.win.NextSeq(),
			AckedSeq:       tc.win.Base(),
			RTONs:          tc.ctrl.RTO(),
			SRTTNs:         tc.ctrl.SRTT(),
			RTTVarNs:       tc.ctrl.RTTVar(),
			Retries:        tc.ctrl.Retries(),
			Failed:         tc.failed,
			LastProgressNs: tc.lastProgressNs,
		})
		tc.mu.Unlock()
	}
	for _, rc := range rxs {
		rc.mu.Lock()
		snap.Channels = append(snap.Channels, health.ChannelSnapshot{
			Peer:           rc.src,
			Dir:            "rx",
			CumAck:         rc.reseq.CumAck(),
			Parked:         rc.reseq.Buffered(),
			SinceAck:       rc.sinceAck,
			AdvEdge:        rc.edge,
			LastProgressNs: rc.lastProgressNs,
		})
		rc.mu.Unlock()
	}
	sort.Slice(snap.Channels, func(i, j int) bool {
		a, b := &snap.Channels[i], &snap.Channels[j]
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Dir < b.Dir
	})
	return snap
}
