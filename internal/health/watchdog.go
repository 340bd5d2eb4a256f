package health

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Watchdog conditions, the closed vocabulary of Verdict.Condition.
const (
	// CondWindowStall: a TX window is full and its cumulative ack has
	// not advanced for longer than StallRTOs adaptive timeouts — the
	// sender is wedged behind a peer that has stopped acknowledging.
	CondWindowStall = "window_stall"

	// CondRTOStorm: a channel has accumulated StormRetries consecutive
	// retransmission timeouts without progress — each one doubled the
	// RTO, so the channel is in exponential-backoff freefall.
	CondRTOStorm = "rto_storm"

	// CondPoolLeak: the frame-pool ledger shows more buffers
	// outstanding than the windows and resequencers account for,
	// persistently — a buffer leak, not a transient capture skew.
	CondPoolLeak = "pool_leak"

	// CondRxStarvation: the node transmitted and then, with frames in
	// flight awaiting acks, its receive path did not wake once for at
	// least two of its longest current retransmission timeouts — RX is
	// starved or dead, not merely slow.
	CondRxStarvation = "rx_starvation"
)

// Verdict is one classified stall condition on one channel or node.
type Verdict struct {
	Condition string `json:"condition"`
	Node      string `json:"node"`
	Peer      int    `json:"peer"` // -1 for node-level conditions
	SinceNs   int64  `json:"since_ns"`
	Detail    string `json:"detail,omitempty"`
}

// WatchdogConfig tunes the scan.
type WatchdogConfig struct {
	// Interval is the cadence Run scans at (live stacks). Sim stacks
	// call Scan from stepped engine time instead. Zero means 1s.
	Interval time.Duration

	// StallRTOs is the window-stall deadline in units of the channel's
	// current adaptive RTO: full window + no ack progress for more than
	// StallRTOs·RTO is a stall. Zero means 3.
	StallRTOs int

	// StormRetries is the consecutive-timeout count that classifies an
	// RTO storm. Zero means 3.
	StormRetries int

	// PoolSlack is the tolerated excess of pool-ledger outstanding
	// buffers over what the channels account for (burst staging and
	// fault-injection copies legitimately hold a few). Zero means 64.
	PoolSlack int64

	// PoolScans is how many consecutive scans the ledger must exceed
	// the allowance before a leak verdict (a single capture races the
	// counters it reads). Zero means 2.
	PoolScans int
}

func (c *WatchdogConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.StallRTOs <= 0 {
		c.StallRTOs = 3
	}
	if c.StormRetries <= 0 {
		c.StormRetries = 3
	}
	if c.PoolSlack <= 0 {
		c.PoolSlack = 64
	}
	if c.PoolScans <= 0 {
		c.PoolScans = 2
	}
}

// condKey identifies one active condition for transition tracking.
type condKey struct {
	cond string
	node string
	peer int
}

// sortKeys puts keys in (condition, node, peer) order, the order Scan
// returns verdicts and logs transitions in.
func sortKeys(keys []condKey) {
	slices.SortFunc(keys, func(a, b condKey) int {
		return cmp.Or(cmp.Compare(a.cond, b.cond), cmp.Compare(a.node, b.node), cmp.Compare(a.peer, b.peer))
	})
}

// Watchdog periodically scans Source snapshots and classifies stall
// conditions. It is clock-agnostic through the now seam: the live stack
// hands it wall time and drives it from a goroutine (Run); the sim
// cluster hands it engine time and calls Scan between stepped RunUntil
// slices, so sim stalls are detected on simulated deadlines.
type Watchdog struct {
	cfg WatchdogConfig
	now func() int64
	log *slog.Logger

	scans    *telemetry.Counter
	stalled  *telemetry.Gauge
	verdicts map[string]*telemetry.Counter
	reg      *telemetry.Registry

	mu          sync.Mutex
	sources     []Source
	active      map[condKey]int64     // condition -> first-seen ns
	poolHot     map[string]int        // node -> consecutive over-allowance scans
	starveSince map[string]int64      // node -> ns of the scan that first saw tx without an rx wakeup
	counts      map[string]starveMark // node -> previous scan's counters
}

// starveMark is what scanStarvation keeps of a node between scans.
type starveMark struct{ tx, wake int64 }

// NewWatchdog builds a watchdog reading time through now (wall or sim
// nanoseconds — whatever clock the watched stacks stamp LastProgressNs
// with). Verdicts are counted in reg (when non-nil) under
// clic_health_verdicts_total{condition=...} and written to log (when
// non-nil) as watchdog_verdict / watchdog_clear lines, each stamped
// t_ns from now (simulated time for the sim cluster, where slog's own
// wall timestamps mean nothing).
func NewWatchdog(cfg WatchdogConfig, now func() int64, log *slog.Logger, reg *telemetry.Registry) *Watchdog {
	cfg.defaults()
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	w := &Watchdog{
		cfg:         cfg,
		now:         now,
		log:         log,
		reg:         reg,
		verdicts:    map[string]*telemetry.Counter{},
		active:      map[condKey]int64{},
		poolHot:     map[string]int{},
		starveSince: map[string]int64{},
		counts:      map[string]starveMark{},
	}
	if reg != nil {
		w.scans = reg.Counter("clic_health_scans_total", "watchdog snapshot scans performed")
		w.stalled = reg.Gauge("clic_health_active_conditions", "stall conditions currently active across watched nodes")
	}
	return w
}

// Watch adds sources to the scan set.
func (w *Watchdog) Watch(sources ...Source) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range sources {
		if s != nil {
			w.sources = append(w.sources, s)
		}
	}
}

// Run scans on the configured interval until done closes. Live stacks
// run it as a goroutine; sim stacks call Scan directly instead.
func (w *Watchdog) Run(done <-chan struct{}) {
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			w.Scan()
		}
	}
}

// Scan captures every watched source and classifies stall conditions,
// returning the currently active verdicts in (condition, node, peer)
// order. Transitions — a condition newly raised, or one previously
// raised now cleared — are logged and counted in that order too, so the
// same snapshots give the same output; a persisting condition stays in
// the returned set without being logged again.
func (w *Watchdog) Scan() []Verdict {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.scans != nil {
		w.scans.Inc()
	}
	now := w.now()
	current := map[condKey]Verdict{}
	for _, src := range w.sources {
		snap := src.HealthSnapshot()
		w.scanNode(&snap, now, current)
	}

	// Transition bookkeeping: raise the new, clear the vanished.
	keys := make([]condKey, 0, len(current))
	for key := range current {
		keys = append(keys, key)
	}
	sortKeys(keys)
	out := make([]Verdict, 0, len(keys))
	for _, key := range keys {
		v := current[key]
		first, wasActive := w.active[key]
		if !wasActive {
			first = now
			w.active[key] = first
			w.countVerdict(key.cond)
			if w.log != nil {
				w.log.LogAttrs(context.Background(), slog.LevelWarn, "watchdog_verdict",
					slog.String("condition", v.Condition), slog.String("node", v.Node),
					slog.Int("peer", v.Peer), slog.String("detail", v.Detail),
					slog.Int64("t_ns", now))
			}
		}
		v.SinceNs = now - first
		out = append(out, v)
	}
	var cleared []condKey
	for key := range w.active {
		if _, still := current[key]; !still {
			cleared = append(cleared, key)
		}
	}
	sortKeys(cleared)
	for _, key := range cleared {
		delete(w.active, key)
		if w.log != nil {
			w.log.LogAttrs(context.Background(), slog.LevelInfo, "watchdog_clear",
				slog.String("condition", key.cond), slog.String("node", key.node),
				slog.Int("peer", key.peer), slog.Int64("t_ns", now))
		}
	}
	if w.stalled != nil {
		w.stalled.Set(int64(len(w.active)))
	}
	return out
}

// scanNode classifies one node snapshot into current. Called with w.mu
// held.
func (w *Watchdog) scanNode(snap *NodeSnapshot, now int64, current map[condKey]Verdict) {
	accounted := int64(0)
	inFlight := 0
	maxRTO := int64(0)
	for i := range snap.Channels {
		ch := &snap.Channels[i]
		if ch.Dir == "tx" {
			accounted += int64(ch.InFlight)
			inFlight += ch.InFlight
			if !ch.Failed && ch.RTONs > maxRTO {
				maxRTO = ch.RTONs
			}
			w.scanTxChan(snap, ch, now, current)
		} else {
			accounted += int64(ch.Parked)
		}
	}
	w.scanPool(snap, accounted, current)
	w.scanStarvation(snap, inFlight, maxRTO, now, current)
}

func (w *Watchdog) scanTxChan(snap *NodeSnapshot, ch *ChannelSnapshot, now int64, current map[condKey]Verdict) {
	if ch.Failed {
		return // already declared dead; nothing left to watch for
	}
	if ch.Retries >= w.cfg.StormRetries {
		current[condKey{CondRTOStorm, snap.Node, ch.Peer}] = Verdict{
			Condition: CondRTOStorm, Node: snap.Node, Peer: ch.Peer,
			Detail: fmt.Sprintf("%d consecutive timeouts, rto %v", ch.Retries, time.Duration(ch.RTONs)),
		}
	}
	if ch.Window > 0 && ch.InFlight >= ch.Window && ch.RTONs > 0 {
		idle := now - ch.LastProgressNs
		if idle > int64(w.cfg.StallRTOs)*ch.RTONs {
			current[condKey{CondWindowStall, snap.Node, ch.Peer}] = Verdict{
				Condition: CondWindowStall, Node: snap.Node, Peer: ch.Peer,
				Detail: fmt.Sprintf("window %d/%d full, no ack progress for %v (> %d RTOs)",
					ch.InFlight, ch.Window, time.Duration(idle), w.cfg.StallRTOs),
			}
		}
	}
}

// scanPool checks the frame-pool ledger against what the channels
// account for, requiring the excess to persist PoolScans scans.
func (w *Watchdog) scanPool(snap *NodeSnapshot, accounted int64, current map[condKey]Verdict) {
	if snap.Pool == nil {
		return
	}
	excess := snap.Pool.Outstanding - accounted
	if excess > w.cfg.PoolSlack {
		w.poolHot[snap.Node]++
	} else {
		delete(w.poolHot, snap.Node)
	}
	if w.poolHot[snap.Node] >= w.cfg.PoolScans {
		current[condKey{CondPoolLeak, snap.Node, -1}] = Verdict{
			Condition: CondPoolLeak, Node: snap.Node, Peer: -1,
			Detail: fmt.Sprintf("%d buffers outstanding, channels account for %d (+%d slack)",
				snap.Pool.Outstanding, accounted, w.cfg.PoolSlack),
		}
	}
}

// scanStarvation compares counter deltas across scans. A scan that sees
// transmissions since the previous one, no RX wakeup, and frames still
// awaiting acks opens a starvation episode; any wakeup (or an empty
// window) closes it. The verdict is gated on the episode's age, not on
// how many scans it spans: no wakeup for 2·maxRTO — two of the node's
// longest current retransmission timeouts, backoff included — means two
// retransmission rounds went unanswered, whatever cadence the caller
// scans at. (A scan-count gate fired on healthy lossy traffic when
// scans came faster than one RTO round.) The opening scan never
// fires: the burst it saw may have left just before its first ack was
// due. Skipped when the stack does not report the counters.
func (w *Watchdog) scanStarvation(snap *NodeSnapshot, inFlight int, maxRTO, now int64, current map[condKey]Verdict) {
	tx, okTx := snap.Counters[CounterTxFrames]
	wake, okWake := snap.Counters[CounterRxWakeups]
	if !okTx || !okWake {
		delete(w.starveSince, snap.Node)
		return
	}
	prev, seen := w.counts[snap.Node]
	w.counts[snap.Node] = starveMark{tx: tx, wake: wake}
	if !seen {
		return
	}
	since, open := w.starveSince[snap.Node]
	switch {
	case inFlight == 0 || wake != prev.wake:
		delete(w.starveSince, snap.Node)
	case !open:
		if tx > prev.tx {
			w.starveSince[snap.Node] = now
		}
	case now-since >= 2*maxRTO:
		current[condKey{CondRxStarvation, snap.Node, -1}] = Verdict{
			Condition: CondRxStarvation, Node: snap.Node, Peer: -1,
			Detail: fmt.Sprintf("0 rx wakeups for %v (>= 2 x rto %v) after transmitting, %d in flight",
				time.Duration(now-since), time.Duration(maxRTO), inFlight),
		}
	}
}

// countVerdict bumps clic_health_verdicts_total{condition=...}. Called
// with w.mu held; registration is lazy and cached per condition.
func (w *Watchdog) countVerdict(cond string) {
	if w.reg == nil {
		return
	}
	c, ok := w.verdicts[cond]
	if !ok {
		c = w.reg.Counter("clic_health_verdicts_total",
			"stall conditions newly raised by the health watchdog",
			telemetry.L("condition", cond))
		w.verdicts[cond] = c
	}
	c.Inc()
}
