package clic_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/clic"
	"repro/internal/cluster"
	"repro/internal/ether"
	"repro/internal/flight"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// points returns j's point events named name, in recording order.
func points(j *flight.Journal, name string) []flight.Event {
	var out []flight.Event
	for _, ev := range j.Snapshot() {
		if ev.Kind == flight.KindPoint && ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// dropOnce returns a link filter that drops the first CLIC data frame
// carrying sequence seq and passes everything else.
func dropOnce(seq uint32) func(*ether.Frame) bool {
	dropped := false
	return func(f *ether.Frame) bool {
		if dropped || f.Type != ether.TypeCLIC {
			return false
		}
		hdr, _, err := proto.DecodeHeader(f.Payload)
		if err != nil || hdr.Type != proto.TypeData || hdr.Seq != seq {
			return false
		}
		dropped = true
		return true
	}
}

// TestNackRecoveryUnblocksSender regresses the onNack early-return bug:
// a NACK arriving inside the debounce interval was discarded wholesale,
// so the window slots its cumulative part freed never woke the blocked
// sender and the first-ever NACK (within 500 µs of t=0, when lastGoBN
// was still zero) never triggered a go-back-N. The transfer then sat
// idle until the retransmission timer fired. With the timer pushed out
// to 200 ms, recovery must come from the NACK path alone. The message
// fits inside the window, so every frame is pushed before the gap
// report arrives: nothing else ever re-arms the receiver's gap timer,
// and a discarded first NACK means no second chance before the timer.
func TestNackRecoveryUnblocksSender(t *testing.T) {
	params := cluster.New(cluster.Config{Nodes: 1}).Params
	params.CLIC.FastRetransmit = true
	params.CLIC.RetransmitTimeout = 200 * sim.Millisecond
	params.CLIC.RTOMin = 200 * sim.Millisecond
	params.CLIC.RTOMax = sim.Second
	j := flight.New(0)
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 3, Params: &params, Flight: j})
	c.EnableCLIC(clic.DefaultOptions())
	c.Nodes[0].NICs[0].Link().FilterFromA(dropOnce(2))

	payload := pattern(10_000) // 7 frames, under the 32-frame window
	var got []byte
	var done sim.Time
	c.Go("sender", func(p *sim.Proc) {
		c.Nodes[0].CLIC.Send(p, 1, 8, payload) //nolint:errcheck // unlimited retries
	})
	c.Go("receiver", func(p *sim.Proc) {
		_, got = c.Nodes[1].CLIC.Recv(p, 8)
		done = p.Now()
	})
	c.Eng.RunUntil(2 * sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer incomplete: %d of %d bytes", len(got), len(payload))
	}
	if done >= 100*sim.Millisecond {
		t.Errorf("recovery took %.2f ms: the NACK was ignored and the 200 ms timer did the work",
			float64(done)/1e6)
	}
	if c.Nodes[0].CLIC.S.Retransmits.Value() == 0 {
		t.Error("no retransmissions; the drop filter never engaged")
	}
	// The sender journals the gap report with its cumulative ack.
	nacks := points(j, trace.PointNackRecv)
	if len(nacks) == 0 || nacks[0].Node != c.Nodes[0].Host.Name || nacks[0].Arg != 2 {
		t.Errorf("nack-recv points %+v, want the first on the sender with cum 2", nacks)
	}
}

// TestBondedRetransmitKeepsSrcNIC regresses the goBackN adapter-pick bug:
// retransmitted frames were reposted through whatever adapter pickNIC()
// returned next, so a frame composed for eth0 (Src MAC of eth0) could
// leave through eth1 — skewing per-NIC counters and teaching a
// MAC-learning switch the wrong port. Every data frame observed on a
// bonded link must carry that adapter's own source MAC.
func TestBondedRetransmitKeepsSrcNIC(t *testing.T) {
	params := cluster.New(cluster.Config{Nodes: 1}).Params
	params.Link.LossRate = 0.05
	c := cluster.New(cluster.Config{Nodes: 2, NICsPerNode: 2, Seed: 11, Params: &params})
	c.EnableCLIC(clic.DefaultOptions())

	violations := 0
	for i, adapter := range c.Nodes[0].NICs {
		mac := adapter.MAC
		link := adapter.Link()
		i := i
		link.FilterFromA(func(f *ether.Frame) bool {
			if f.Type == ether.TypeCLIC && f.Src != mac {
				t.Errorf("frame with Src %v left through eth%d (%v)", f.Src, i, mac)
				violations++
			}
			return false // observe only
		})
	}

	payload := pattern(500_000)
	var got []byte
	c.Go("sender", func(p *sim.Proc) {
		c.Nodes[0].CLIC.Send(p, 1, 9, payload) //nolint:errcheck // unlimited retries
	})
	c.Go("receiver", func(p *sim.Proc) {
		_, got = c.Nodes[1].CLIC.Recv(p, 9)
	})
	c.Eng.RunUntil(10 * sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer incomplete: %d of %d bytes", len(got), len(payload))
	}
	if c.Nodes[0].CLIC.S.Retransmits.Value() == 0 {
		t.Fatal("no retransmissions under 5% loss; the regression path never ran")
	}
	if violations != 0 {
		t.Errorf("%d frames retransmitted through the wrong adapter", violations)
	}
}

// TestChannelFailsAfterMaxRetries: with every data frame eaten by the
// fabric and a bounded retry budget, the sender must not spin forever —
// the channel fails, blocked senders return ErrChannelFailed, and the
// adaptive RTO shows the exponential backoff it climbed on the way.
func TestChannelFailsAfterMaxRetries(t *testing.T) {
	params := cluster.New(cluster.Config{Nodes: 1}).Params
	params.CLIC.RetransmitTimeout = sim.Millisecond
	params.CLIC.RTOMin = sim.Millisecond
	params.CLIC.RTOMax = 10 * sim.Millisecond
	params.CLIC.MaxRetries = 3
	j := flight.New(0)
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 1, Params: &params, Flight: j})
	c.EnableCLIC(clic.DefaultOptions())
	c.Nodes[0].NICs[0].Link().FilterFromA(func(f *ether.Frame) bool {
		if f.Type != ether.TypeCLIC {
			return false
		}
		hdr, _, err := proto.DecodeHeader(f.Payload)
		return err == nil && hdr.Type == proto.TypeData
	})

	var sendErr error
	sent := false
	c.Go("sender", func(p *sim.Proc) {
		// Larger than the 32-frame window, so the sender blocks on a slot
		// and must be woken by the failure, not just notice it on return.
		sendErr = c.Nodes[0].CLIC.Send(p, 1, 10, pattern(100_000))
		sent = true
	})
	c.Eng.RunUntil(sim.Second)
	if !sent {
		t.Fatal("sender still blocked after channel failure")
	}
	if !errors.Is(sendErr, clic.ErrChannelFailed) {
		t.Fatalf("Send returned %v, want ErrChannelFailed", sendErr)
	}
	ep := c.Nodes[0].CLIC
	if got := ep.S.ChannelFailures.Value(); got != 1 {
		t.Errorf("channel failures = %d, want 1", got)
	}
	if got := ep.S.RTOBackoffs.Value(); got != 3 {
		t.Errorf("rto backoffs = %d, want 3 (one per retry before the budget ran out)", got)
	}
	if rto := ep.ChannelRTO(1); rto <= params.CLIC.RetransmitTimeout {
		t.Errorf("final RTO %v never backed off above the initial %v",
			rto, params.CLIC.RetransmitTimeout)
	}
	// Each expiry journals the RTO it doubled to, and each frame it
	// replays; the failure journals the peer.
	backoffs := points(j, trace.PointRTOBackoff)
	if int64(len(backoffs)) != ep.S.RTOBackoffs.Value() {
		t.Errorf("%d rto-backoff points for %d counted backoffs", len(backoffs), ep.S.RTOBackoffs.Value())
	}
	rto := int64(params.CLIC.RetransmitTimeout)
	for i, ev := range backoffs {
		rto *= 2
		if ev.Arg != rto {
			t.Errorf("rto-backoff %d arg %d, want the doubled RTO %d", i, ev.Arg, rto)
		}
	}
	resent := points(j, trace.PointRetransmit)
	if int64(len(resent)) != ep.S.Retransmits.Value() {
		t.Errorf("%d retransmit points for %d counted retransmits", len(resent), ep.S.Retransmits.Value())
	}
	for _, ev := range resent {
		if ev.Frame == 0 || ev.Arg <= 0 {
			t.Fatalf("retransmit point %+v names no frame or length", ev)
		}
	}
	if failed := points(j, trace.PointChannelFailed); len(failed) != 1 || failed[0].Arg != 1 {
		t.Errorf("channel-failed points %+v, want one naming peer 1", failed)
	}
	// The channel stays dead: later sends fail immediately.
	var again error
	c.Go("again", func(p *sim.Proc) {
		again = c.Nodes[0].CLIC.Send(p, 1, 10, []byte("x"))
	})
	c.Eng.RunUntil(2 * sim.Second)
	if !errors.Is(again, clic.ErrChannelFailed) {
		t.Errorf("send on a failed channel returned %v, want ErrChannelFailed", again)
	}
}
