package live_test

import (
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/live"
)

// TestCloseWhileDelivering is the regression test for the Close ABBA:
// Close used to stop timers and broadcast conds while holding pmu, the
// inverse nesting of the RX deliver path (rc.mu → pmu.RLock). With
// traffic in flight that was a real deadlock window; under
// -tags lockcheck the old shape panics deterministically (pmu rank 30
// held while taking a rank-20 channel lock). The fixed Close snapshots
// the tables under pmu, releases it, then visits each channel.
func TestCloseWhileDelivering(t *testing.T) {
	for round := 0; round < 5; round++ {
		a, err := live.NewNode(0, live.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := live.NewNode(1, live.DefaultConfig())
		if err != nil {
			a.Close()
			t.Fatal(err)
		}
		live.Connect(a, b)

		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Send(1, 40, pattern(4000)) //nolint:errcheck
			}
		}()
		go func() {
			for {
				if _, err := b.Recv(40); err != nil {
					return
				}
			}
		}()

		time.Sleep(5 * time.Millisecond) // let traffic reach steady state
		closed := make(chan struct{})
		go func() {
			b.Close() // receiver mid-delivery: the old shape's deadlock window
			a.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked against in-flight delivery")
		}
		close(stop)
	}
}

// TestDelayedAckDrivesWindow is the regression test for the delayed-ack
// path (the ack transmit outside rc.mu, framed on a stack buffer instead
// of the rxLoop-exclusive ackBuf). The stream never asks for an ack:
// each single-frame message waits until the one before it was acked,
// so one frame is in flight, below half the window (4), and never the
// one that fills it. Nothing flows back to carry an ack either, so
// every message is released by a timer ack — or, if the sender's RTO
// fired first on a loaded host, by the re-ack of the duplicate.
func TestDelayedAckDrivesWindow(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.Window = 4
	cfg.AckDelay = time.Millisecond
	a, b := pair(t, cfg)

	const count = 8 // 2x the window: needs at least one full recycle
	for i := 0; i < count; i++ {
		if err := a.Send(1, 41, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		msg, err := b.Recv(41)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != byte(i) {
			t.Fatalf("message %d carried %d", i, msg.Data[0])
		}
		waitTx(t, a, 1, "delayed acks never released the window",
			func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	}
	c := b.HealthSnapshot().Counters
	if c["delayed_acks"] < count-c["rx_dup_frames"] || c["acks_sent"] != c["delayed_acks"]+c["rx_dup_frames"] {
		t.Errorf("%d acks sent for %d messages that asked for none: %d by the timer, %d re-acking duplicates; want one timer ack a message",
			c["acks_sent"], count, c["delayed_acks"], c["rx_dup_frames"])
	}
}
