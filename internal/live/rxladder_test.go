package live_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/health"
	"repro/internal/live"
)

// counterValue reads one counter from a node's telemetry registry,
// summed over its series (the rx counters have one per shard).
func counterValue(t testing.TB, n *live.Node, name string) int64 {
	t.Helper()
	var sum float64
	for _, m := range n.Telemetry().Snapshot() {
		if m.Name == name && m.Value != nil {
			sum += *m.Value
		}
	}
	return int64(sum)
}

// TestLivePortDropCountedNotSilent: a full port queue used to drop
// completed messages with no trace anywhere — a slow consumer looked
// exactly like wire loss. The drop must move live_port_drops_total, and
// the node must keep working afterwards.
func TestLivePortDropCountedNotSilent(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	// Port queues buffer 64 messages; everything beyond that completes
	// with no consumer and overruns.
	const sends = 80
	for i := 0; i < sends; i++ {
		if err := a.Send(1, 31, []byte("msg")); err != nil {
			t.Fatal(err)
		}
	}
	// Every message is delivered or dropped before it is acknowledged, so
	// once the sender's window has drained the drop count is final; read
	// earlier, it can miss the last drops and the drain below would wait
	// for messages that no longer exist.
	waitTx(t, a, 1, "window never drained", func(ch *health.ChannelSnapshot) bool { return ch.InFlight == 0 })
	drops := counterValue(t, b, "live_port_drops_total")
	if drops == 0 {
		t.Fatal("port overrun moved no live_port_drops_total")
	}
	// The retained messages still drain, and fresh traffic still flows
	// after the overrun.
	for i := 0; i < sends-int(drops); i++ {
		if _, err := b.Recv(31); err != nil {
			t.Fatalf("recv %d after overrun: %v", i, err)
		}
	}
	if err := a.Send(1, 31, []byte("after")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(31)
	if err != nil || string(msg.Data) != "after" {
		t.Fatalf("post-overrun traffic broken: %q, %v", msg.Data, err)
	}
}

// TestLiveBulkDeepBurstsStayWithRxLoop: a bulk stream must arrive byte
// for byte in bursts of more than one datagram, and its deep bursts keep
// the socket with rxLoop: the goroutine blocked in Recv reads next to
// none of them itself. Bursts only carry more than one frame with the
// Linux burst reader; other platforms just verify correctness.
func TestLiveBulkDeepBurstsStayWithRxLoop(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	payload := pattern(2_000_000)
	done := make(chan error, 1)
	go func() { done <- a.Send(1, 40, payload) }()
	msg, err := b.Recv(40)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.Data, payload) {
		t.Fatalf("bulk payload corrupted: %d bytes", len(msg.Data))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS != "linux" || (runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64") {
		t.Skip("deep bursts need the recvmmsg reader")
	}
	bursts, direct := counterValue(t, b, "live_rx_bursts_total"), counterValue(t, b, "live_rx_direct_bursts_total")
	if direct*20 > bursts {
		t.Errorf("the Recv caller read %d of %d bursts of a bulk stream; deep bursts must hand the socket back to rxLoop", direct, bursts)
	}
	if frames := counterValue(t, b, "live_rx_burst_frames_total"); frames <= bursts {
		t.Errorf("%d frames in %d bursts: a ~1300-datagram stream must arrive in bursts of more than one frame", frames, bursts)
	}
}
