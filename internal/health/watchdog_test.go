package health_test

import (
	"bytes"
	"fmt"
	"log/slog"
	"testing"

	"repro/internal/health"
	"repro/internal/telemetry"
)

// fakeSource serves a settable snapshot.
type fakeSource struct{ snap health.NodeSnapshot }

func (f *fakeSource) HealthSnapshot() health.NodeSnapshot { return f.snap }

// wdHarness is a watchdog over one fake source with a settable clock.
type wdHarness struct {
	src *fakeSource
	wd  *health.Watchdog
	now int64
	reg *telemetry.Registry
	buf *bytes.Buffer
}

func newHarness(t *testing.T, cfg health.WatchdogConfig) *wdHarness {
	t.Helper()
	h := &wdHarness{
		src: &fakeSource{},
		reg: telemetry.NewRegistry(),
		buf: &bytes.Buffer{},
	}
	log := slog.New(slog.NewJSONHandler(h.buf, nil))
	h.wd = health.NewWatchdog(cfg, func() int64 { return h.now }, log, h.reg)
	h.wd.Watch(h.src)
	return h
}

func conditions(vs []health.Verdict) map[string]bool {
	got := map[string]bool{}
	for _, v := range vs {
		got[v.Condition] = true
	}
	return got
}

func TestWatchdogWindowStall(t *testing.T) {
	h := newHarness(t, health.WatchdogConfig{StallRTOs: 3})
	h.src.snap = health.NodeSnapshot{
		Node: "n0",
		Channels: []health.ChannelSnapshot{{
			Peer: 1, Dir: "tx", Window: 4, InFlight: 4,
			RTONs: 1_000_000, LastProgressNs: 0,
		}},
	}
	h.now = 2_000_000 // 2 RTOs idle: under the deadline
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("stall raised too early: %v", vs)
	}
	h.now = 3_500_000 // past 3 RTOs
	vs := h.wd.Scan()
	if !conditions(vs)[health.CondWindowStall] {
		t.Fatalf("window stall not raised: %v", vs)
	}
	if vs[0].Peer != 1 || vs[0].Node != "n0" {
		t.Fatalf("verdict identity: %+v", vs[0])
	}

	// Progress clears it.
	h.src.snap.Channels[0].InFlight = 1
	h.src.snap.Channels[0].LastProgressNs = h.now
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("stall not cleared: %v", vs)
	}
	out := h.buf.String()
	if !bytes.Contains([]byte(out), []byte("watchdog_verdict")) ||
		!bytes.Contains([]byte(out), []byte("watchdog_clear")) {
		t.Fatalf("transition events missing: %s", out)
	}
}

func TestWatchdogRTOStorm(t *testing.T) {
	h := newHarness(t, health.WatchdogConfig{StormRetries: 3})
	h.src.snap = health.NodeSnapshot{
		Node: "n0",
		Channels: []health.ChannelSnapshot{{
			Peer: 2, Dir: "tx", Window: 4, InFlight: 1, Retries: 2,
			RTONs: 1_000_000, LastProgressNs: 0,
		}},
	}
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("storm raised below threshold: %v", vs)
	}
	h.src.snap.Channels[0].Retries = 3
	if vs := h.wd.Scan(); !conditions(vs)[health.CondRTOStorm] {
		t.Fatalf("storm not raised: %v", vs)
	}

	// A failed channel is dead, not storming: nothing left to watch.
	h.src.snap.Channels[0].Failed = true
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("failed channel still reported: %v", vs)
	}
}

func TestWatchdogPoolLeakNeedsPersistence(t *testing.T) {
	h := newHarness(t, health.WatchdogConfig{PoolSlack: 10, PoolScans: 2})
	h.src.snap = health.NodeSnapshot{
		Node: "n0",
		Pool: &health.PoolSnapshot{Gets: 100, Puts: 0, Outstanding: 100},
	}
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("leak raised on first scan (capture skew not tolerated): %v", vs)
	}
	if vs := h.wd.Scan(); !conditions(vs)[health.CondPoolLeak] {
		t.Fatalf("persistent leak not raised: %v", vs)
	}

	// Channels accounting for the buffers absolve the ledger.
	h.src.snap.Channels = []health.ChannelSnapshot{
		{Peer: 1, Dir: "tx", Window: 128, InFlight: 60},
		{Peer: 1, Dir: "rx", Parked: 40},
	}
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("accounted buffers still flagged: %v", vs)
	}
}

func TestWatchdogRxStarvation(t *testing.T) {
	h := newHarness(t, health.WatchdogConfig{})
	const rto = 1_000_000
	snap := func(tx, wake, rtoNs int64) health.NodeSnapshot {
		return health.NodeSnapshot{
			Node: "n0",
			Counters: map[string]int64{
				health.CounterTxFrames:  tx,
				health.CounterRxWakeups: wake,
			},
			Channels: []health.ChannelSnapshot{
				{Peer: 1, Dir: "tx", Window: 4, InFlight: 2, RTONs: rtoNs},
				// A dead channel's stale, backed-off RTO must not stretch the gate.
				{Peer: 2, Dir: "tx", Window: 4, Failed: true, RTONs: 1000 * rto},
			},
		}
	}
	scan := func(at int64, s health.NodeSnapshot) map[string]bool {
		h.now = at
		h.src.snap = s
		return conditions(h.wd.Scan())
	}
	if got := scan(0, snap(100, 5, rto)); len(got) != 0 { // first scan: no baseline yet
		t.Fatalf("starvation without a baseline: %v", got)
	}
	// Sent 100 frames, zero wakeups, frames in flight: the episode opens,
	// but the burst may have left just before its first ack was due.
	if got := scan(rto/10, snap(200, 5, rto)); len(got) != 0 {
		t.Fatalf("starvation raised by the scan that opened the episode: %v", got)
	}
	// Nineteen more scans inside 2 RTOs: cadence alone must not raise it.
	for i := int64(2); i <= 20; i++ {
		if got := scan(i*rto/10, snap(200+i, 5, rto)); len(got) != 0 {
			t.Fatalf("starvation raised %d scans and %v into the episode, under 2 RTOs", i, i*rto/10)
		}
	}
	// A backed-off RTO stretches the gate with it.
	if got := scan(rto/10+2*rto, snap(300, 5, 2*rto)); len(got) != 0 {
		t.Fatalf("starvation raised 2 base RTOs in, but the current RTO has doubled: %v", got)
	}
	if got := scan(rto/10+2*rto, snap(300, 5, rto)); !got[health.CondRxStarvation] {
		t.Fatalf("starvation persisting 2 RTOs not raised: %v", got)
	}
	if got := scan(rto/10+3*rto, snap(300, 6, rto)); len(got) != 0 { // rx woke: healthy
		t.Fatalf("starvation not cleared by a wakeup: %v", got)
	}
	// Silence with nothing sent since the wakeup opens no episode.
	if got := scan(rto/10+9*rto, snap(300, 6, rto)); len(got) != 0 {
		t.Fatalf("starvation raised on a node that sent nothing: %v", got)
	}

	// Stacks without the counters never trip the condition.
	h.src.snap.Counters = nil
	h.wd.Scan()
	h.now += 100 * rto
	if vs := h.wd.Scan(); len(vs) != 0 {
		t.Fatalf("starvation without counters: %v", vs)
	}
}

func TestWatchdogMetrics(t *testing.T) {
	h := newHarness(t, health.WatchdogConfig{StormRetries: 1})
	h.src.snap = health.NodeSnapshot{
		Node: "n0",
		Channels: []health.ChannelSnapshot{{
			Peer: 1, Dir: "tx", Window: 4, InFlight: 1, Retries: 5, RTONs: 1_000_000,
		}},
	}
	h.wd.Scan()
	h.wd.Scan() // persisting condition must not re-count
	var scans, verdicts, active int64
	for _, m := range h.reg.Snapshot() {
		if m.Value == nil {
			continue
		}
		switch m.Name {
		case "clic_health_scans_total":
			scans = int64(*m.Value)
		case "clic_health_verdicts_total":
			verdicts = int64(*m.Value)
		case "clic_health_active_conditions":
			active = int64(*m.Value)
		}
	}
	if scans != 2 || verdicts != 1 || active != 1 {
		t.Fatalf("scans=%d verdicts=%d active=%d, want 2/1/1", scans, verdicts, active)
	}
}

// TestWatchdogVerdictOrder: Scan returns its verdicts, and logs raises
// and clears, in (condition, node, peer) order whatever order the
// snapshot lists the channels in, each line stamped t_ns from the
// watchdog's clock — so two identical sim runs print identical lines.
func TestWatchdogVerdictOrder(t *testing.T) {
	var want []string
	for _, cond := range []string{health.CondRTOStorm, health.CondWindowStall} {
		for peer := 1; peer <= 4; peer++ {
			want = append(want, fmt.Sprintf("%s/%d", cond, peer))
		}
	}
	for run := 0; run < 20; run++ {
		h := newHarness(t, health.WatchdogConfig{})
		for _, peer := range []int{3, 1, 4, 2} {
			h.src.snap.Channels = append(h.src.snap.Channels, health.ChannelSnapshot{
				Peer: peer, Dir: "tx", Window: 4, InFlight: 4, Retries: 5, RTONs: 1_000_000,
			})
		}
		h.src.snap.Node = "n0"
		h.now = 10_000_000
		var got []string
		for _, v := range h.wd.Scan() {
			got = append(got, fmt.Sprintf("%s/%d", v.Condition, v.Peer))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: verdicts %v, want %v", run, got, want)
		}
		h.src.snap.Channels = nil
		h.now = 11_000_000
		h.wd.Scan()

		recs := decodeLines(t, h.buf)
		if len(recs) != 2*len(want) {
			t.Fatalf("run %d: %d log lines, want %d raises then %d clears", run, len(recs), len(want), len(want))
		}
		for i, r := range recs {
			msg, at := "watchdog_verdict", float64(10_000_000)
			if i >= len(want) {
				msg, at = "watchdog_clear", 11_000_000
			}
			line := fmt.Sprintf("%v/%v", r["condition"], r["peer"])
			if r["msg"] != msg || line != want[i%len(want)] || r["t_ns"] != at {
				t.Fatalf("run %d: log line %d is %v %s t_ns=%v, want %s %s t_ns=%v",
					run, i, r["msg"], line, r["t_ns"], msg, want[i%len(want)], at)
			}
		}
	}
}
