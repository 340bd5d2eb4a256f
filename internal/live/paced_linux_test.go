package live_test

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"testing"
	"time"

	"repro/internal/live"
)

// BenchmarkLivePacedPingPong is BenchmarkLivePingPong with the client
// pausing between round trips, so the echo's Recv caller waits in the
// poller for several milliseconds per request: the sparse
// request/response case (a server under ~1k msg/s, or a peer more than
// a millisecond away). Wall time is the pacing, so ns/op says nothing;
// the costs are reported per message, both directions counted:
//
//   - cpu-us/msg: user + system CPU of the whole process (getrusage).
//   - runs/msg: goroutine runs, i.e. wake-ups including timer fires.
//     The runtime records 1 in 8 of them in /sched/latencies:seconds;
//     the count is scaled back up, so it is an estimate.
//   - echo-handoffs/msg, client-handoffs/msg: completed messages queued
//     on a port for a parked Recv caller (live_rx_handoffs_total).
//   - direct/msg: bursts read by a Recv caller, both nodes.
func BenchmarkLivePacedPingPong(b *testing.B) {
	for _, gap := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprint(gap), func(b *testing.B) { pacedPingPong(b, gap) })
	}
}

func pacedPingPong(b *testing.B, gap time.Duration) {
	a, c := benchPair(b, live.DefaultConfig())
	const port = 42
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < 20+b.N; i++ {
			msg, err := c.Recv(port)
			if err == nil {
				err = c.Send(0, port, msg.Data)
			}
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	roundTrip := func() {
		if err := a.Send(1, port, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(port); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // warm-up
		time.Sleep(gap)
		roundTrip()
	}
	counters := func() (echoHand, clientHand, direct int64) {
		return counterValue(b, c, "live_rx_handoffs_total"), counterValue(b, a, "live_rx_handoffs_total"),
			counterValue(b, a, "live_rx_direct_bursts_total") + counterValue(b, c, "live_rx_direct_bursts_total")
	}
	eh0, ch0, d0 := counters()
	cpu0, runs0 := processCPU(b), goroutineRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		time.Sleep(gap)
		roundTrip()
	}
	b.StopTimer()
	cpu, runs := processCPU(b)-cpu0, goroutineRuns()-runs0
	eh, ch, d := counters()
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	msgs := float64(2 * b.N)
	b.ReportMetric(float64(cpu.Microseconds())/msgs, "cpu-us/msg")
	b.ReportMetric(float64(8*runs)/msgs, "runs/msg")
	b.ReportMetric(float64(eh-eh0)/float64(b.N), "echo-handoffs/msg")
	b.ReportMetric(float64(ch-ch0)/float64(b.N), "client-handoffs/msg")
	b.ReportMetric(float64(d-d0)/msgs, "direct/msg")
}

// processCPU is the process's user + system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goroutineRuns is the number of goroutine runs the scheduler sampled
// into /sched/latencies:seconds so far (1 in 8 of all runs).
func goroutineRuns() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}
