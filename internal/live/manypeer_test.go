package live_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/live"
	"repro/internal/trace"
)

// node builds one live node with a cleanup hook.
func node(t *testing.T, id int, cfg live.Config) *live.Node {
	t.Helper()
	n, err := live.NewNode(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// snapChan finds one channel snapshot by peer and direction.
func snapChan(snap *health.NodeSnapshot, peer int, dir string) *health.ChannelSnapshot {
	for i := range snap.Channels {
		if snap.Channels[i].Peer == peer && snap.Channels[i].Dir == dir {
			return &snap.Channels[i]
		}
	}
	return nil
}

// waitTx polls n's health snapshot until its tx channel to peer exists
// and satisfies ok, and returns that snapshot; after 2 s it fails the
// test naming what never happened.
func waitTx(t *testing.T, n *live.Node, peer int, what string, ok func(*health.ChannelSnapshot) bool) health.NodeSnapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := n.HealthSnapshot()
		if tc := snapChan(&snap, peer, "tx"); tc != nil && ok(tc) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("tx channel to peer %d: %s", peer, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandshake: a hello exchange must register both ends without any
// out-of-band AddPeer, join the edge the peer advertised into the
// joiner's TX channel, and leave the link fully usable in both
// directions.
func TestHandshake(t *testing.T) {
	cfg := live.DefaultConfig()
	a := node(t, 0, cfg)
	b := node(t, 1, cfg)
	peer, err := b.Handshake(a.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if peer != 0 {
		t.Fatalf("handshake returned peer %d, want 0", peer)
	}
	if err := b.Send(0, 7, pattern(5000)); err != nil {
		t.Fatal(err)
	}
	if msg, err := a.Recv(7); err != nil || len(msg.Data) != 5000 || msg.Src != 1 {
		t.Fatalf("recv after handshake: %v src=%d len=%d", err, msg.Src, len(msg.Data))
	}
	// The responder learned us from the hello itself: reverse traffic
	// needs no registration either.
	if err := a.Send(1, 8, pattern(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(8); err != nil {
		t.Fatal(err)
	}
	snap := b.HealthSnapshot()
	tc := snapChan(&snap, 0, "tx")
	if tc == nil {
		t.Fatal("no tx channel to peer 0 after handshake")
	}
	if tc.Credit < 1 || tc.Credit > cfg.Window {
		t.Errorf("tx channel grants %d frames past its base after the hello reply, want 1..%d", tc.Credit, cfg.Window)
	}
	if snap.Counters["handshakes"] == 0 {
		t.Error("handshake counter never moved")
	}
}

// TestByeFailsChannels: the teardown notice from a closing peer must
// fail the survivor's TX channel immediately — ErrPeerDead without
// waiting out the MaxRetries RTO ladder.
func TestByeFailsChannels(t *testing.T) {
	cfg := live.DefaultConfig()
	// A retry ladder slow enough that only the bye can explain a fast
	// failure.
	cfg.RetransmitTimeout = 250 * time.Millisecond
	cfg.RTOMin = 250 * time.Millisecond
	cfg.MaxRetries = 8
	a, b := pair(t, cfg)
	if err := a.Send(1, 7, pattern(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(7); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// The bye is datagram-delivered; give the receive loop a moment.
	deadline := time.Now().Add(time.Second)
	for {
		err := a.Send(1, 7, pattern(10))
		if errors.Is(err, live.ErrPeerDead) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("send after bye returned %v, want ErrPeerDead within 1s", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := a.HealthSnapshot()
	if snap.Counters["peer_evictions"] == 0 {
		t.Error("bye never counted as a peer eviction")
	}
}

// TestShardedFanIn: a multi-shard receiver must deliver every message
// from a 16-peer fan-in intact, and the per-shard stats must show the
// kernel actually spreading peers across shards.
func TestShardedFanIn(t *testing.T) {
	const (
		peers = 16
		msgs  = 20
		size  = 5 * 1000
	)
	rcfg := live.DefaultConfig()
	rcfg.Shards = 4
	rcfg.PortDepth = 1024
	recv := node(t, 100, rcfg)
	if recv.Shards() < 2 {
		t.Skipf("sharding unsupported on this platform (%d shard)", recv.Shards())
	}
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		s := node(t, p, live.DefaultConfig())
		live.Connect(recv, s)
		wg.Add(1)
		go func(s *live.Node, id int) {
			defer wg.Done()
			payload := pattern(size)
			payload[0] = byte(id)
			for i := 0; i < msgs; i++ {
				if err := s.Send(100, 9, payload); err != nil {
					t.Errorf("sender %d: %v", id, err)
					return
				}
			}
		}(s, p)
	}
	got := make([]int, peers)
	for i := 0; i < peers*msgs; i++ {
		msg, err := recv.Recv(9)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.Data) != size || msg.Data[0] != byte(msg.Src) {
			t.Fatalf("message %d from %d: len %d marker %d", i, msg.Src, len(msg.Data), msg.Data[0])
		}
		got[msg.Src]++
	}
	wg.Wait()
	for p, c := range got {
		if c != msgs {
			t.Errorf("peer %d delivered %d/%d messages", p, c, msgs)
		}
	}
	snap := recv.HealthSnapshot()
	if len(snap.Shards) != recv.Shards() {
		t.Fatalf("snapshot reports %d shards, node runs %d", len(snap.Shards), recv.Shards())
	}
	busy := 0
	var frames int64
	for _, s := range snap.Shards {
		if s.Frames > 0 {
			busy++
		}
		frames += s.Frames
	}
	if frames == 0 {
		t.Fatal("no shard recorded any frames")
	}
	// 16 peers all hashing to one of 4 shards is a (1/4)^15 fluke; two
	// busy shards prove the REUSEPORT spread is real.
	if busy < 2 {
		t.Errorf("only %d of %d shards saw traffic; REUSEPORT spread not engaged", busy, len(snap.Shards))
	}
}

// TestBlackholedPeerCannotStarvePool is the pool-isolation regression
// test: before per-peer in-flight caps, a peer that stopped acking
// retained a full window of pooled frames (and with a big enough
// window, most of the pool); now it retains at most PeerInFlight while
// healthy traffic streams on unharmed, and each of its RTO expiries
// resends at most two frames.
func TestBlackholedPeerCannotStarvePool(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.Window = 64
	cfg.PeerInFlight = 8
	cfg.RetransmitTimeout = 10 * time.Millisecond
	cfg.RTOMin = 5 * time.Millisecond
	cfg.RTOMax = 40 * time.Millisecond
	cfg.MaxRetries = 0 // retry forever: the blackhole must be bounded by the cap, not the retry budget
	a, b := pair(t, cfg)

	// The blackhole: a socket that never reads and never acks.
	hole, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	a.AddPeer(7, hole.LocalAddr().(*net.UDPAddr))

	// A message worth a full window of fragments, sent into the void;
	// the cap must hold it to 8 in-flight frames. The send blocks until
	// Close wakes it.
	blackholed := make(chan error, 1)
	go func() { blackholed <- a.Send(7, 9, pattern(64*1400)) }()

	// The healthy echoes below can all finish before that goroutine has
	// created its channel, so wait until it holds frames in flight.
	waitTx(t, a, 7, "blackholed send never put a frame in flight",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight > 0 })

	// Healthy traffic must stream on unharmed while the blackhole RTOs.
	for i := 0; i < 50; i++ {
		if err := a.Send(1, 11, pattern(8000)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(11); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.HealthSnapshot()
	tc := snapChan(&snap, 7, "tx")
	if tc == nil {
		t.Fatal("no tx channel to the blackholed peer")
	}
	if tc.InFlight > cfg.PeerInFlight {
		t.Errorf("blackholed peer holds %d frames in flight, cap is %d", tc.InFlight, cfg.PeerInFlight)
	}
	if tc.Window != cfg.PeerInFlight {
		t.Errorf("effective window reports %d, want the %d cap (the watchdog keys off it)", tc.Window, cfg.PeerInFlight)
	}
	// The healthy round-trips above can complete before the blackholed
	// channel's first RTO even fires, so poll for two expiries rather
	// than asserting on one snapshot. Every retransmission that is not a
	// NACK repair came from an RTO expiry, and an expiry resends at most
	// the head and the newest frame: the blackholed window is 8 frames,
	// so going back N would break the bound at the first expiry.
	deadline := time.Now().Add(2 * time.Second)
	for snap.Counters["rto_backoffs"] < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d RTO expiries in 2 s on a blackholed window", snap.Counters["rto_backoffs"])
		}
		time.Sleep(5 * time.Millisecond)
		snap = a.HealthSnapshot()
	}
	c := snap.Counters
	if rto := c["retransmits"] - c["fast_retransmits"]; rto > 2*c["rto_backoffs"] {
		t.Errorf("%d retransmissions over %d RTO expiries (%d NACK repairs aside), want at most 2 an expiry",
			rto, c["rto_backoffs"], c["fast_retransmits"])
	}
	a.Close()
	if err := <-blackholed; err == nil {
		t.Error("blackholed send returned nil, want ErrClosed/ErrPeerDead")
	}
}

// TestFanInSoakFaults is the many-peer churn soak: 64 faulty senders
// incast one receiver (sharded, capped) under loss, duplication
// and reordering. Every message must deliver intact, the watchdog
// watching the receiver must issue no verdicts, and at quiesce every
// node's pool ledger must balance to zero outstanding buffers.
func TestFanInSoakFaults(t *testing.T) {
	const (
		peers = 64
		msgs  = 12
		size  = 3 * 1000
	)
	rcfg := live.DefaultConfig()
	rcfg.Shards = 4
	rcfg.PeerInFlight = 8
	rcfg.PortDepth = 4096
	rcfg.RetransmitTimeout = 10 * time.Millisecond
	rcfg.RTOMin = 5 * time.Millisecond
	recv := node(t, 100, rcfg)

	wd := health.NewWatchdog(health.WatchdogConfig{
		StallRTOs: 20, PoolSlack: 256,
	}, nil, nil, nil)
	wd.Watch(recv)
	var verdicts []health.Verdict
	wdStop := make(chan struct{})
	wdDone := make(chan struct{})
	go func() {
		defer close(wdDone)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-wdStop:
				return
			case <-t.C:
				verdicts = append(verdicts, wd.Scan()...)
			}
		}
	}()

	scfg := live.DefaultConfig()
	scfg.PeerInFlight = 8
	scfg.LossRate = 0.05
	scfg.DupRate = 0.05
	scfg.ReorderRate = 0.05
	scfg.RetransmitTimeout = 10 * time.Millisecond
	scfg.RTOMin = 5 * time.Millisecond
	senders := make([]*live.Node, peers)
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		scfg.Seed = int64(p + 1)
		s := node(t, p, scfg)
		senders[p] = s
		live.Connect(recv, s)
		wg.Add(1)
		go func(s *live.Node, id int) {
			defer wg.Done()
			payload := pattern(size)
			payload[0] = byte(id)
			for i := 0; i < msgs; i++ {
				if err := s.Send(100, 9, payload); err != nil {
					t.Errorf("sender %d: %v", id, err)
					return
				}
			}
		}(s, p)
	}
	for i := 0; i < peers*msgs; i++ {
		msg, err := recv.Recv(9)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.Data) != size || msg.Data[0] != byte(msg.Src) {
			t.Fatalf("message %d from %d corrupted: len %d marker %d", i, msg.Src, len(msg.Data), msg.Data[0])
		}
	}
	wg.Wait()
	close(wdStop)
	<-wdDone
	if len(verdicts) > 0 {
		t.Errorf("watchdog issued false verdicts during the soak: %+v", verdicts)
	}
	var dups int64
	for _, s := range senders {
		dups += s.HealthSnapshot().Counters["dups_injected"]
	}
	if dups == 0 || recv.HealthSnapshot().Counters["rx_dup_frames"] == 0 {
		t.Errorf("%d duplicates injected, %d dropped by the receiver: want both counted", dups, recv.HealthSnapshot().Counters["rx_dup_frames"])
	}

	// Quiesce: reorder-delayed duplicates and in-flight acks drain, then
	// every pool ledger must balance — 0 outstanding buffers anywhere.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := int64(0)
		for _, n := range append([]*live.Node{recv}, senders...) {
			if s := n.HealthSnapshot(); s.Pool != nil {
				leaked += s.Pool.Outstanding
			}
		}
		if leaked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool ledgers never balanced: %d buffers outstanding at quiesce", leaked)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The grant law: the receiver's edges never promise more than its
	// budget (creditFrames, split across the peers) plus the one-frame
	// floor per peer, and none more than a window past its cum.
	snap := recv.HealthSnapshot()
	budget := int64(4<<20) * int64(recv.Shards()) / int64(rcfg.MTU) / 2
	var granted int64
	for _, ch := range snap.Channels {
		if ch.Dir != "rx" {
			continue
		}
		g := int64(int32(ch.AdvEdge - ch.CumAck))
		if g < 1 || g > int64(rcfg.Window) {
			t.Errorf("rx channel from %d grants %d frames past cum %d, want 1..%d", ch.Peer, g, ch.CumAck, rcfg.Window)
		}
		granted += g
	}
	if granted > budget+peers {
		t.Errorf("receiver grants %d frames in all, over its budget %d plus one frame for each of %d peers", granted, budget, peers)
	}
}

// waitPoint polls j until it holds a point event with want's name, node,
// frame and arg; after 2 s it fails the test listing the points of that
// name it did find.
func waitPoint(t *testing.T, j *flight.Journal, want flight.Event) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var seen []flight.Event
		for _, ev := range j.Snapshot() {
			if ev.Kind != flight.KindPoint || ev.Name != want.Name {
				continue
			}
			if ev.Node == want.Node && ev.Frame == want.Frame && ev.Arg == want.Arg {
				return
			}
			seen = append(seen, ev)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s point on %s frame %#x arg %d; recorded %+v",
				want.Name, want.Node, want.Frame, want.Arg, seen)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecyclePoints: each lifecycle incident and a port drop leave a
// flight point — hello on both ends and bye on the node it happens to
// (arg = the peer), and a drop on the dropped message's closing frame
// (arg = the port).
func TestLifecyclePoints(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.Flight = flight.New(0)
	cfg.PortDepth = 1
	j := cfg.Flight
	a := node(t, 0, cfg)
	b := node(t, 1, cfg)

	if _, err := b.Handshake(a.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitPoint(t, j, flight.Event{Name: trace.PointHello, Node: "live0", Arg: 1})
	waitPoint(t, j, flight.Event{Name: trace.PointHello, Node: "live1", Arg: 0})

	// Nobody reads port 9 and it queues one message: sequences 1 and 2
	// are dropped.
	for i := 0; i < 3; i++ {
		if err := b.Send(0, 9, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	for _, seq := range []uint32{1, 2} {
		waitPoint(t, j, flight.Event{Name: trace.PointDrop, Node: "live0", Frame: flight.FrameID(1, seq), Arg: 9})
	}

	b.Close()
	waitPoint(t, j, flight.Event{Name: trace.PointBye, Node: "live0", Arg: 1})
}

// TestCreditAdvertised: every ack carries the receiver's edge, so once
// a stream is acknowledged the sender's edge is exactly the highest one
// the receiver advertised, a grant of 1..Window frames past the
// cumulative ack.
func TestCreditAdvertised(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	for i := 0; i < 20; i++ {
		if err := a.Send(1, 7, pattern(4000)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(7); err != nil {
			t.Fatal(err)
		}
	}
	snap := waitTx(t, a, 1, "stream never fully acknowledged",
		func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	tc := snapChan(&snap, 1, "tx")
	bsnap := b.HealthSnapshot()
	rc := snapChan(&bsnap, 0, "rx")
	if rc == nil {
		t.Fatal("no rx channel on the receiver")
	}
	if edge := tc.AckedSeq + uint32(tc.Credit); edge != rc.AdvEdge || rc.CumAck != tc.AckedSeq {
		t.Fatalf("sender holds cum %d edge %d, receiver advertised cum %d edge %d", tc.AckedSeq, edge, rc.CumAck, rc.AdvEdge)
	}
	if g := int(rc.AdvEdge - rc.CumAck); g < 1 || g > bsnap.Window {
		t.Fatalf("receiver grants %d frames past its cum, want 1..%d", g, bsnap.Window)
	}
}
