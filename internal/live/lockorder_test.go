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

// TestUnaskedStreamReleasedByProbe: a stream that never asks for an
// ack. Each single-frame message waits until the one before it was
// acked, so one frame is in flight, below half the window (4), and never
// the one that fills it, and nothing flows back to carry an ack. The
// receiver holds the ack it owes, and the sender's RTO expiry asks for
// it: each message is released by exactly one probe, the duplicate's
// re-ack, with no backoff. (A receiver timer used to guess here, and on
// a loaded host the sender's RTO could expire before its ack arrived.)
func TestUnaskedStreamReleasedByProbe(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.Window = 4
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
		waitTx(t, a, 1, "no probe released the window",
			func(tc *health.ChannelSnapshot) bool { return tc.InFlight == 0 })
	}
	tx, rx := a.HealthSnapshot().Counters, b.HealthSnapshot().Counters
	if tx["ack_probes"] != count || tx["rto_backoffs"] != 0 {
		t.Errorf("sender: %d probes and %d backoffs for %d messages that asked for no ack; want one probe a message and no backoff",
			tx["ack_probes"], tx["rto_backoffs"], count)
	}
	if rx["acks_sent"] != rx["rx_dup_frames"] {
		t.Errorf("receiver: %d acks sent, %d duplicates received; want an ack only for each probe's duplicate",
			rx["acks_sent"], rx["rx_dup_frames"])
	}
}
