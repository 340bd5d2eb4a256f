package main

import (
	"sync"
	"time"

	"repro/internal/clic"
	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/proto"
	"repro/internal/relwin"
	"repro/internal/rto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Leaf kernels time the small pure functions both stacks are built from, in
// isolation and at fixed iteration counts, in traced runs only. They say
// whether a change in an end-to-end cost can come from a leaf at all: a
// header round trip of 10 ns cannot explain a microsecond.

// sink keeps the compiler from deleting a kernel's work.
var sink uint64

// perOp runs body once — it must do n operations — and returns ns per
// operation.
func perOp(n int, body func()) float64 {
	start := time.Now()
	body()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// leafKernels runs every kernel and returns its metric. Each takes well under
// a second; the account is ticked between kernels so the stall watchdog sees
// progress.
func leafKernels(acct *account) map[string]float64 {
	out := map[string]float64{}
	add := func(name string, value float64) {
		out[name] = value
		acct.ticks.Add(1)
	}

	const headerOps = 10_000_000
	add("proto.header_roundtrip_ns", perOp(headerOps, func() {
		var buf [proto.HeaderBytes]byte
		for i := 0; i < headerOps; i++ {
			proto.Header{Type: proto.TypeData, Port: 7, Seq: uint32(i), Len: 1400}.Put(buf[:])
			h, _, err := proto.DecodeHeader(buf[:])
			if err != nil {
				panic(err)
			}
			sink += uint64(h.Seq)
		}
	}))

	const window, windowOps = 64, 5_000_000
	add("relwin.push_ack_ns", perOp(windowOps, func() {
		s := relwin.NewSender[int](window)
		release := func(seq relwin.Seq, _ int) { sink += uint64(seq) }
		for done := 0; done < windowOps; done += window {
			for i := 0; i < window; i++ {
				s.Push(i)
			}
			s.AckFunc(s.NextSeq(), release)
		}
	}))

	const reseqOps = 10_000_000
	add("relwin.reseq_inorder_ns", perOp(reseqOps, func() {
		q := relwin.NewResequencer[int](window)
		emit := func(v int) { sink += uint64(v) }
		for i := 0; i < reseqOps; i++ {
			q.AcceptFunc(relwin.Seq(i), i, emit)
		}
	}))
	add("relwin.reseq_parked_ns", perOp(reseqOps, func() {
		// Every pair arrives swapped: the later frame parks, the earlier one
		// releases both.
		q := relwin.NewResequencer[int](window)
		emit := func(v int) { sink += uint64(v) }
		for i := 0; i < reseqOps; i += 2 {
			q.AcceptFunc(relwin.Seq(i+1), i+1, emit)
			q.AcceptFunc(relwin.Seq(i), i, emit)
		}
	}))

	const rtoOps = 20_000_000
	add("rto.observe_ns", perOp(rtoOps, func() {
		c := rto.New(rto.Config{Initial: 20e6, Min: 5e6, Max: 2e9})
		for i := 0; i < rtoOps; i++ {
			c.Observe(int64(40_000 + i&1023))
		}
		sink += uint64(c.RTO())
	}))

	const telemetryOps = 20_000_000
	add("telemetry.counter_inc_ns", perOp(telemetryOps, func() {
		var c telemetry.Counter
		for i := 0; i < telemetryOps; i++ {
			c.Inc()
		}
		sink += uint64(c.Value())
	}))
	add("telemetry.hist_observe_ns", perOp(telemetryOps, func() {
		h := telemetry.NewHistogram(telemetry.DefLatencyBuckets())
		for i := 0; i < telemetryOps; i++ {
			h.Observe(float64(1000 + i&0xffff))
		}
		sink += uint64(h.N())
	}))

	snapshotUs, healthUs := nodeSnapshots()
	add("telemetry.snapshot_us", snapshotUs)
	add("health.snapshot_us", healthUs)

	const events, batch = 2_000_000, 1024
	add("sim.engine.events_per_s", 1e9/perOp(events, func() {
		e := sim.NewEngine(1)
		fired := 0
		for done := 0; done < events; done += batch {
			for i := 0; i < batch; i++ {
				e.After(sim.Time(i), "kernel", func() { fired++ })
			}
			e.Run()
		}
		sink += uint64(fired)
	}))

	const sleeps = 300_000
	add("sim.engine.proc_switch_ns", perOp(sleeps, func() {
		e := sim.NewEngine(1)
		e.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(1)
			}
		})
		sink += uint64(e.Run())
	}))

	const clusters = 300
	add("cluster.new_us", perOp(clusters, func() {
		for i := 0; i < clusters; i++ {
			c := cluster.New(cluster.Config{Nodes: 2, Seed: 1})
			c.EnableCLIC(clic.DefaultOptions())
			sink += uint64(len(c.Nodes))
		}
	})/1e3)
	return out
}

// nodeSnapshots times Registry.Snapshot and Node.HealthSnapshot, in µs per
// call, on a node that is streaming 8 KiB messages to a peer meanwhile: the
// price of one /metrics or /debug/clic scrape on a busy node.
func nodeSnapshots() (snapshotUs, healthUs float64) {
	const calls = 2000
	cfg := live.DefaultConfig()
	cfg.PortDepth = 8192
	a, err := live.NewNode(0, cfg)
	if err != nil {
		fatalf("snapshot kernel: %v", err)
	}
	defer a.Close()
	b, err := live.NewNode(1, cfg)
	if err != nil {
		fatalf("snapshot kernel: %v", err)
	}
	defer b.Close()
	live.Connect(a, b)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // traffic source; stops at the next message once told to
		defer wg.Done()
		payload := make([]byte, 8<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if a.Send(1, 1, payload) != nil {
				return
			}
		}
	}()
	go func() { // drain, until the nodes close
		defer wg.Done()
		for {
			if _, err := b.Recv(1); err != nil {
				return
			}
		}
	}()
	snapshotUs = perOp(calls, func() {
		for i := 0; i < calls; i++ {
			sink += uint64(len(a.Telemetry().Snapshot()))
		}
	}) / 1e3
	healthUs = perOp(calls, func() {
		for i := 0; i < calls; i++ {
			sink += uint64(len(a.HealthSnapshot().Channels))
		}
	}) / 1e3
	close(stop)
	a.Close()
	b.Close()
	wg.Wait()
	return snapshotUs, healthUs
}
