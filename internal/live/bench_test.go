package live_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live"
)

// benchPair builds a connected node pair for benchmarks, mirroring pair()
// without the testing.T plumbing.
func benchPair(b *testing.B, cfg live.Config) (*live.Node, *live.Node) {
	b.Helper()
	a, err := live.NewNode(0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := live.NewNode(1, cfg)
	if err != nil {
		a.Close()
		b.Fatal(err)
	}
	live.Connect(a, c)
	b.Cleanup(func() { a.Close(); c.Close() })
	return a, c
}

// BenchmarkLiveStream measures one-way streaming over loopback UDP: the
// sender pushes fixed-size messages as fast as the window allows while
// the receiver drains them. bytes/op is the message size, so ns/op
// converts directly to Mb/s; allocs/op tracks the per-message datapath
// cost (fragmentation, framing, receive, reassembly).
//
// The port queue keeps its default depth, so a receiver that falls
// behind loses acknowledged messages at the full queue (ROADMAP item
// 2a) and the count-based Recv loop would wait forever for them. A
// watchdog fails the run instead once nothing has been delivered for
// streamStall, naming live_port_drops_total, and closes the nodes so
// Recv returns.
func BenchmarkLiveStream(b *testing.B) {
	for _, mtu := range []int{1500, 9000} {
		b.Run(fmt.Sprintf("mtu=%d", mtu), func(b *testing.B) {
			cfg := live.DefaultConfig()
			cfg.MTU = mtu
			cfg.Window = 64
			a, c := benchPair(b, cfg)
			const msgSize = 64 * 1024
			payload := make([]byte, msgSize)
			for i := range payload {
				payload[i] = byte(i)
			}
			errs := make(chan error, 1)
			var got atomic.Int64
			stalled := watchDelivery(&got, a, c)
			defer close(stalled.stop)
			b.SetBytes(msgSize)
			b.ReportAllocs()
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					if err := a.Send(1, 40, payload); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
			for i := 0; i < b.N; i++ {
				if _, err := c.Recv(40); err != nil {
					select {
					case <-stalled.fired:
						b.Fatalf("no message delivered for %v after %d of %d: %d dropped at the full port queue (live_port_drops_total)",
							streamStall, i, b.N, counterValue(b, c, "live_port_drops_total"))
					default:
						b.Fatal(err)
					}
				}
				got.Add(1)
			}
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// streamStall is how long BenchmarkLiveStream waits without a delivery
// before it declares the stream stuck.
const streamStall = 5 * time.Second

// deliveryWatch is the stuck-stream watchdog: fired closes when the
// count stops moving for streamStall (the nodes are then closed), stop
// ends the watch.
type deliveryWatch struct{ fired, stop chan struct{} }

// watchDelivery polls got until it stalls for streamStall, then closes
// the nodes so every blocked Recv and Send returns.
func watchDelivery(got *atomic.Int64, nodes ...*live.Node) deliveryWatch {
	w := deliveryWatch{fired: make(chan struct{}), stop: make(chan struct{})}
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		last, since := got.Load(), time.Now()
		for {
			select {
			case <-w.stop:
				return
			case now := <-tick.C:
				if g := got.Load(); g != last {
					last, since = g, now
				} else if now.Sub(since) >= streamStall {
					close(w.fired)
					for _, n := range nodes {
						n.Close()
					}
					return
				}
			}
		}
	}()
	return w
}

// BenchmarkLivePingPong measures request/response latency with empty
// payloads: one round trip per op, so ns/op is the full two-way protocol
// latency (send syscall, receive path, ack handling on both ends).
func BenchmarkLivePingPong(b *testing.B) {
	cfg := live.DefaultConfig()
	a, c := benchPair(b, cfg)
	errs := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			msg, err := c.Recv(41)
			if err != nil {
				errs <- err
				return
			}
			if err := c.Send(0, 41, msg.Data); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := a.Send(1, 41, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(41); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}
