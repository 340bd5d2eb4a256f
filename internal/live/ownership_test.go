package live

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
)

// wbPair is the white-box twin of the black-box pair helper: tests in
// this file reach into pool counters and port channels, which the
// external test package cannot see.
func wbPair(t *testing.T, cfg Config) (*Node, *Node) {
	t.Helper()
	a, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(1, cfg)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	Connect(a, b)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func wbPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 7)
	}
	return b
}

// recvBefore is b.Recv(port) with a deadline: when the timer fires first
// the test fails with both nodes' health snapshots instead of hanging
// the package (deliver() drops at a full port queue, and a count-based
// receive loop then waits forever — ROADMAP item 1).
func recvBefore(t *testing.T, deadline *time.Timer, a, b *Node, port uint16) Message {
	t.Helper()
	select {
	case m := <-b.portChan(port):
		return m
	case <-deadline.C:
		doc, _ := json.MarshalIndent(health.Capture("wall", time.Now().UnixNano(), a, b), "", " ")
		t.Fatalf("no message on port %d before the deadline; health:\n%s", port, doc)
		return Message{}
	}
}

// streamQuiesce waits until src's in-flight window drains so one
// guard's leftover acks don't land inside the next measurement.
func streamQuiesce(t *testing.T, src *Node, dst int) {
	t.Helper()
	tc, err := src.txFor(dst)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		tc.mu.Lock()
		inflight := tc.win.InFlight()
		tc.mu.Unlock()
		if inflight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("window never drained: %d frames in flight", inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolOwnershipSoak hammers the pooled-buffer ownership protocol
// with every fault at once — loss, duplication, reordering — in both
// directions, over messages small enough to fragment but large enough
// to park out of order. framePool.Put panics on a double free or a
// retained-buffer free the moment one happens; this test adds the
// other half of the invariant: at quiesce every Get has been matched
// by exactly one Put on both nodes (no leaked buffer is still hiding
// in a window, a park, a reorder timer, or a NACK repair's snapshot).
// Run it under -race and the same traffic doubles as a locking soak
// for the pin/release protocol.
func TestPoolOwnershipSoak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MTU = 700 // ~4 fragments per message
	cfg.LossRate = 0.12
	cfg.DupRate = 0.15
	cfg.ReorderRate = 0.25
	cfg.Seed = 41
	cfg.RetransmitTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 0 // the soak must converge, never declare the peer dead
	a, b := wbPair(t, cfg)

	const count = 120
	payload := wbPattern(2500)
	var wg sync.WaitGroup
	send := func(n *Node, dst int) {
		defer wg.Done()
		for i := 0; i < count; i++ {
			if err := n.Send(dst, 9, append([]byte{byte(i)}, payload...)); err != nil {
				t.Errorf("send %d -> %d: %v", i, dst, err)
				return
			}
		}
	}
	// Both receivers drain concurrently with the senders: a port queue
	// left unread while the reverse direction is verified would
	// overflow and drop (by design), which is not the invariant under
	// test here.
	recv := func(n *Node) {
		defer wg.Done()
		for i := 0; i < count; i++ {
			msg, err := n.Recv(9)
			if err != nil {
				t.Error(err)
				return
			}
			if msg.Data[0] != byte(i) || len(msg.Data) != len(payload)+1 {
				t.Errorf("node %d message %d: header %d len %d (ordering or integrity broken)",
					n.ID, i, msg.Data[0], len(msg.Data))
				return
			}
		}
	}
	wg.Add(4)
	go recv(a)
	go recv(b)
	go send(a, 1)
	go send(b, 0)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesce: the last acks, parked fragments and reorder timers all
	// resolve within a few RTOs; then the pool ledgers must balance.
	deadline := time.Now().Add(5 * time.Second)
	for {
		aOK := a.poolGets.Value() == a.poolPuts.Value()
		bOK := b.poolGets.Value() == b.poolPuts.Value()
		if aOK && bOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool ledger unbalanced at quiesce: a gets=%d puts=%d, b gets=%d puts=%d (leaked or double-freed frame buffers)",
				a.poolGets.Value(), a.poolPuts.Value(), b.poolGets.Value(), b.poolPuts.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if a.poolGets.Value() == 0 {
		t.Fatal("pool never used; the soak exercised nothing")
	}
	// The ledger above covers the NACK repair's pooled snapshot only if
	// repairs happened (taken under tc.mu, written and returned after).
	if a.fastRetransmits.Value() == 0 || b.fastRetransmits.Value() == 0 {
		t.Fatalf("fast retransmits a=%d b=%d; the soak never exercised the NACK repair path",
			a.fastRetransmits.Value(), b.fastRetransmits.Value())
	}
}
