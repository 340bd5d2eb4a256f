package live_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/live"
	"repro/internal/proto"
	"repro/internal/trace"
)

// TestLiveSoakLossDupReorder drives the UDP stack through every injected
// fault at once — loss, duplication and reordering — with an unlimited
// retry budget: delivery must stay exact, in order and duplicate-free.
// Run under -race this also shakes out locking in the deferred-write
// reorder path and the RTO timer callbacks.
func TestLiveSoakLossDupReorder(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.LossRate = 0.15
	cfg.DupRate = 0.2
	cfg.ReorderRate = 0.3
	cfg.Seed = 9
	cfg.RetransmitTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 0 // the soak must converge, never declare the peer dead
	a, b := pair(t, cfg)
	const count = 60
	go func() {
		for i := 0; i < count; i++ {
			if err := a.Send(1, 20, append([]byte{byte(i)}, pattern(1500)...)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		msg, err := b.Recv(20)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != byte(i) || len(msg.Data) != 1501 {
			t.Fatalf("message %d: header %d len %d (ordering or integrity broken)",
				i, msg.Data[0], len(msg.Data))
		}
	}
	if _, ok := b.TryRecv(20); ok {
		t.Error("a duplicate message leaked through the resequencer")
	}
	c := a.HealthSnapshot().Counters
	if drops, retrans := c["loss_injected"], c["retransmits"]; drops == 0 || retrans == 0 {
		t.Errorf("drops=%d retransmits=%d; fault injection never engaged", drops, retrans)
	}
}

// TestLiveDeadPeer: once the peer is gone, a bounded retry budget must
// surface ErrPeerDead instead of retrying forever — first to the
// confirm-waiter blocked on the channel, then immediately to any
// subsequent send.
func TestLiveDeadPeer(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Millisecond
	cfg.RTOMax = 50 * time.Millisecond
	cfg.MaxRetries = 3
	a, b := pair(t, cfg)
	b.Close() // the peer dies before the first datagram

	done := make(chan error, 1)
	go func() { done <- a.SendConfirm(1, 21, pattern(100)) }()
	select {
	case err := <-done:
		if !errors.Is(err, live.ErrPeerDead) {
			t.Fatalf("SendConfirm returned %v, want ErrPeerDead", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SendConfirm never failed against a dead peer")
	}
	// The channel stays failed: a plain Send errors without waiting out
	// another retry ladder.
	start := time.Now()
	if err := a.Send(1, 21, []byte("x")); !errors.Is(err, live.ErrPeerDead) {
		t.Fatalf("Send after failure returned %v, want ErrPeerDead", err)
	}
	if time.Since(start) > time.Second {
		t.Error("send on a failed channel re-ran the retry ladder instead of failing fast")
	}
}

// TestRTOExpiryPoints: against a peer that never answers, every RTO
// expiry leaves an rto-backoff point (arg = the new, doubled RTO, which
// live_rto_ns publishes) and a retransmit point on the resent frame
// (arg = its length), each counted once; the failure leaves a
// channel-failed point naming the peer.
func TestRTOExpiryPoints(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.RetransmitTimeout = 5 * time.Millisecond
	cfg.RTOMin = 5 * time.Millisecond
	cfg.RTOMax = time.Second
	cfg.MaxRetries = 3
	cfg.Flight = flight.New(0)
	a := node(t, 0, cfg)

	// A dead port: bind, read the address, close. Unlike a closed node,
	// it sends no bye, so only the RTO ladder can fail the channel.
	dead, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(1, dead.LocalAddr().(*net.UDPAddr))
	dead.Close()
	if err := a.SendConfirm(1, 21, pattern(100)); !errors.Is(err, live.ErrPeerDead) {
		t.Fatalf("SendConfirm returned %v, want ErrPeerDead", err)
	}

	var backoffs []int64
	var resent, failed int
	for _, ev := range cfg.Flight.Snapshot() {
		if ev.Kind != flight.KindPoint {
			continue
		}
		switch ev.Name {
		case trace.PointRTOBackoff:
			backoffs = append(backoffs, ev.Arg)
		case trace.PointRetransmit:
			resent++
			if ev.Frame != flight.FrameID(0, 0) || ev.Arg != proto.HeaderBytes+100 {
				t.Errorf("retransmit point %+v, want frame (node 0, seq 0) arg %d", ev, proto.HeaderBytes+100)
			}
		case trace.PointChannelFailed:
			failed++
			if ev.Arg != 1 {
				t.Errorf("channel-failed point arg %d, want peer 1", ev.Arg)
			}
		}
	}
	if len(backoffs) != cfg.MaxRetries || resent != cfg.MaxRetries || failed != 1 {
		t.Fatalf("%d rto-backoff, %d retransmit, %d channel-failed points; want %d, %d, 1",
			len(backoffs), resent, failed, cfg.MaxRetries, cfg.MaxRetries)
	}
	rto := cfg.RetransmitTimeout.Nanoseconds()
	for i, arg := range backoffs {
		rto *= 2
		if arg != rto {
			t.Errorf("rto-backoff %d arg %v, want the doubled RTO %v", i, time.Duration(arg), time.Duration(rto))
		}
	}
	for name, want := range map[string]int64{
		"live_rto_backoffs_total":     int64(len(backoffs)),
		"live_retransmits_total":      int64(resent),
		"live_channel_failures_total": 1,
		"live_rto_ns":                 rto,
	} {
		if got := counterValue(t, a, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
