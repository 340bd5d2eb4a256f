package live_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/live"
)

func pair(t *testing.T, cfg live.Config) (*live.Node, *live.Node) {
	t.Helper()
	a, err := live.NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := live.NewNode(1, cfg)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	live.Connect(a, b)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*19 + 11)
	}
	return b
}

func TestLiveSendRecv(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	payload := pattern(100)
	if err := a.Send(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(7)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Src != 0 || !bytes.Equal(msg.Data, payload) {
		t.Fatalf("recv src=%d len=%d", msg.Src, len(msg.Data))
	}
}

func TestLiveFragmentedMessage(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	payload := pattern(50_000) // ~34 datagrams at MTU 1500
	done := make(chan error, 1)
	go func() { done <- a.Send(1, 8, payload) }()
	msg, err := b.Recv(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.Data, payload) {
		t.Fatalf("fragmented payload corrupted: %d bytes", len(msg.Data))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLiveOrderingManyMessages(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	const count = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			if err := a.Send(1, 9, []byte(fmt.Sprintf("m%04d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		msg, err := b.Recv(9)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%04d", i); string(msg.Data) != want {
			t.Fatalf("message %d = %q, want %q (ordering broken)", i, msg.Data, want)
		}
	}
	wg.Wait()
}

func TestLiveLossRecovery(t *testing.T) {
	// 20% injected datagram loss: go-back-N must still deliver everything
	// exactly once, in order.
	cfg := live.DefaultConfig()
	cfg.LossRate = 0.20
	cfg.Seed = 7
	cfg.RetransmitTimeout = 5 * time.Millisecond
	a, b := pair(t, cfg)
	const count = 40
	go func() {
		for i := 0; i < count; i++ {
			a.Send(1, 10, append([]byte{byte(i)}, pattern(2000)...)) //nolint:errcheck
		}
	}()
	for i := 0; i < count; i++ {
		msg, err := b.Recv(10)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != byte(i) || len(msg.Data) != 2001 {
			t.Fatalf("message %d: header %d len %d", i, msg.Data[0], len(msg.Data))
		}
	}
	c := a.HealthSnapshot().Counters
	if c["loss_injected"] == 0 {
		t.Error("loss injection never dropped anything; test is vacuous")
	}
	if c["retransmits"] == 0 {
		t.Error("no retransmissions despite injected loss")
	}
}

func TestLiveDuplicationTolerance(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.DupRate = 0.5
	cfg.Seed = 3
	a, b := pair(t, cfg)
	const count = 30
	go func() {
		for i := 0; i < count; i++ {
			a.Send(1, 11, []byte{byte(i)}) //nolint:errcheck
		}
	}()
	for i := 0; i < count; i++ {
		msg, err := b.Recv(11)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != byte(i) {
			t.Fatalf("duplicate leaked or reordered: got %d want %d", msg.Data[0], i)
		}
	}
	// No extra deliveries may be waiting.
	if _, ok := b.TryRecv(11); ok {
		t.Error("duplicate message delivered twice")
	}
}

// TestLiveSendConfirm: confirmations over a pair that loses 10 % of its
// datagrams both ways, one of a multi-fragment message and then 200 in
// a row of single-frame ones. A lost ack is repaired like a lost frame,
// so every call returns, each well within its deadline.
func TestLiveSendConfirm(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.LossRate = 0.1
	cfg.Seed = 5
	cfg.RetransmitTimeout = 5 * time.Millisecond
	a, b := pair(t, cfg)
	go func() {
		for {
			if _, err := b.Recv(12); err != nil {
				return
			}
		}
	}()
	confirm := func(i, size int) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- a.SendConfirm(1, 12, pattern(size)) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("confirmation %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("confirmation %d still blocked after 5 s (receiver loss_injected %d)",
				i, b.HealthSnapshot().Counters["loss_injected"])
		}
	}
	confirm(0, 5000)
	for i := 1; i <= 200; i++ {
		confirm(i, 100)
	}
	if lost := a.HealthSnapshot().Counters["loss_injected"] + b.HealthSnapshot().Counters["loss_injected"]; lost == 0 {
		t.Error("no datagram was lost: the run proves nothing")
	}
}

func TestLiveRemoteWrite(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	region := b.OpenRegion(13, 4096)
	payload := pattern(1000)
	if err := a.RemoteWrite(1, 13, 256, payload); err != nil {
		t.Fatal(err)
	}
	region.WaitWrites(1)
	snap := region.Snapshot()
	if !bytes.Equal(snap[256:256+len(payload)], payload) {
		t.Fatal("remote write payload corrupted")
	}
	if region.Writes() != 1 {
		t.Fatalf("writes = %d", region.Writes())
	}
}

func TestLiveBidirectional(t *testing.T) {
	a, b := pair(t, live.DefaultConfig())
	const rounds = 50
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := a.Send(1, 14, []byte{byte(i)}); err != nil {
				errs <- err
				return
			}
			if _, err := a.Recv(14); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			msg, err := b.Recv(14)
			if err != nil {
				errs <- err
				return
			}
			if err := b.Send(0, 14, msg.Data); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLiveThreeNodeMesh(t *testing.T) {
	cfg := live.DefaultConfig()
	nodes := make([]*live.Node, 3)
	for i := range nodes {
		n, err := live.NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			live.Connect(nodes[i], nodes[j])
		}
	}
	// Node 0 sends a distinct message to each peer; each replies.
	for dst := 1; dst <= 2; dst++ {
		if err := nodes[0].Send(dst, 15, []byte{byte(dst)}); err != nil {
			t.Fatal(err)
		}
	}
	for dst := 1; dst <= 2; dst++ {
		msg, err := nodes[dst].Recv(15)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Src != 0 || msg.Data[0] != byte(dst) {
			t.Fatalf("node %d got src=%d data=%v", dst, msg.Src, msg.Data)
		}
	}
}

func TestLiveCloseUnblocksRecv(t *testing.T) {
	a, err := live.NewNode(0, live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv(1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != live.ErrClosed {
			t.Fatalf("recv after close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestLiveJumboMTUFewerDatagrams(t *testing.T) {
	run := func(mtu int) int64 {
		cfg := live.DefaultConfig()
		cfg.MTU = mtu
		a, b := pair(t, cfg)
		done := make(chan error, 1)
		go func() { done <- a.Send(1, 30, pattern(45_000)) }()
		if _, err := b.Recv(30); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return a.HealthSnapshot().Counters[health.CounterTxFrames]
	}
	std := run(1500)
	jumbo := run(9000)
	if jumbo*4 > std {
		t.Errorf("jumbo used %d datagrams vs %d at 1500; want ~6x fewer", jumbo, std)
	}
}

func TestLiveWindowBackpressure(t *testing.T) {
	// A tiny window over a lossy link: the sender must still complete
	// (window slots recycle via acks and retransmissions).
	cfg := live.DefaultConfig()
	cfg.Window = 4
	cfg.LossRate = 0.1
	cfg.Seed = 2
	cfg.RetransmitTimeout = 5 * time.Millisecond
	a, b := pair(t, cfg)
	done := make(chan error, 1)
	go func() { done <- a.Send(1, 31, pattern(30_000)) }()
	msg, err := b.Recv(31)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Data) != 30_000 {
		t.Fatalf("got %d bytes", len(msg.Data))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender stuck on a 4-frame window")
	}
}
