//simtime:wallclock

// This file profiles the real-time live stack: wall-clock CPU sampling
// is the measurement, not a determinism leak.

package bench

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/perfreg"
	"repro/internal/telemetry"
)

// ProfileRun is the `clicbench profile` experiment: it arms the perfreg
// stage labels, runs a live streaming + ping-pong workload over loopback
// UDP under an in-memory CPU profile, and folds the profile into the
// per-stage CPU table — "where do the microseconds go" (the paper's
// Fig. 7 question) asked of the real datapath instead of the simulator.
// The raw profile bytes are returned so callers can also write them to
// disk for `go tool pprof` flamegraph inspection. The workload's own
// numbers are printed for context only; measuring a change is
// benchmark/run.sh's job.
func ProfileRun() (*Report, []byte, error) {
	rep := &Report{
		ID:     "profile",
		Title:  "live datapath CPU attribution by pprof stage label",
		XLabel: "stage",
		YLabel: "cpu ms",
	}
	perfreg.Enable()
	defer perfreg.Disable()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("profile: another CPU profile is active: %w", err)
	}
	notes, err := profileWorkload()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	rows, unit, err := perfreg.Attribute(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: attributing capture: %w", err)
	}
	rep.Notef("live workload under CPU profile (stage labels armed):")
	for _, line := range notes {
		rep.Notef("  %s", line)
	}
	for _, line := range strings.Split(strings.TrimRight(perfreg.FormatStageTable(rows, unit), "\n"), "\n") {
		rep.Notef("%s", line)
	}
	return rep, buf.Bytes(), nil
}

// profileWorkload streams 64 KiB messages at standard and jumbo MTU,
// then runs a 0-byte ping-pong, returning one summary line per part.
// The stream is long enough (about a second of CPU at 100 Hz sampling)
// that every datapath stage collects samples.
func profileWorkload() ([]string, error) {
	const msgSize = 64 * 1024
	const msgCount = 5000
	var notes []string
	for _, mtu := range []int{1500, 9000} {
		mbps, err := liveStreamRun(mtu, msgSize, msgCount)
		if err != nil {
			return nil, fmt.Errorf("live stream mtu=%d: %w", mtu, err)
		}
		notes = append(notes, fmt.Sprintf("stream MTU %d: %d x %d KiB, window 64: %.0f Mb/s",
			mtu, msgCount, msgSize/1024, mbps))
	}
	const rounds = 3000
	h, err := livePingPongRun(rounds)
	if err != nil {
		return nil, fmt.Errorf("live pingpong: %w", err)
	}
	notes = append(notes, fmt.Sprintf("0-byte ping-pong over %d rounds: one-way p50 %.1f µs, p99 %.1f µs",
		rounds, h.P50()/1000, h.P99()/1000))
	return notes, nil
}

// livePair builds a connected loopback node pair.
func livePair(cfg live.Config) (*live.Node, *live.Node, error) {
	a, err := live.NewNode(0, cfg)
	if err != nil {
		return nil, nil, err
	}
	b, err := live.NewNode(1, cfg)
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	live.Connect(a, b)
	return a, b, nil
}

// liveStreamRun pushes count messages of size bytes one way (after a
// tenth as warmup) and returns the measured throughput in Mb/s.
func liveStreamRun(mtu, size, count int) (float64, error) {
	cfg := live.DefaultConfig()
	cfg.MTU = mtu
	cfg.Window = 64
	cfg.PortDepth = count // a full port queue drops, and this loop counts messages
	a, b, err := livePair(cfg)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	defer b.Close()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	run := func(msgs int) error {
		errs := make(chan error, 1)
		go func() {
			for i := 0; i < msgs; i++ {
				if err := a.Send(1, 1, payload); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		for i := 0; i < msgs; i++ {
			if _, err := b.Recv(1); err != nil {
				return err
			}
		}
		return <-errs
	}
	if err := run(count / 10); err != nil { // warmup: pools, windows, route caches
		return 0, err
	}
	start := time.Now()
	if err := run(count); err != nil {
		return 0, err
	}
	return float64(count) * float64(size) * 8 / time.Since(start).Seconds() / 1e6, nil
}

// livePingPongRun measures rounds empty-payload round trips (after a
// tenth as warmup) and returns the one-way (RTT/2) latency histogram in
// nanoseconds.
func livePingPongRun(rounds int) (*telemetry.Histogram, error) {
	a, b, err := livePair(live.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	h := telemetry.NewHistogram(telemetry.DefLatencyBuckets())
	errs := make(chan error, 1)
	total := rounds + rounds/10
	go func() {
		for i := 0; i < total; i++ {
			msg, err := b.Recv(2)
			if err != nil {
				errs <- err
				return
			}
			if err := b.Send(0, 2, msg.Data); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < total; i++ {
		start := time.Now()
		if err := a.Send(1, 2, nil); err != nil {
			return nil, err
		}
		if _, err := a.Recv(2); err != nil {
			return nil, err
		}
		if i >= total-rounds {
			h.Observe(float64(time.Since(start)) / 2)
		}
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	return h, nil
}
