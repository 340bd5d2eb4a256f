package ether

import (
	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Link is a full-duplex point-to-point Gigabit Ethernet cable between two
// endpoints. Each direction serialises frames independently at the line
// rate and delivers them after the propagation delay.
type Link struct {
	eng *sim.Engine
	ab  *dir
	ba  *dir
}

// Faults configures per-direction fault injection. All rates are
// probabilities in [0,1), drawn from the engine's seeded random source, so
// a fault pattern is reproducible from the simulation seed.
type Faults struct {
	// Loss drops the frame outright (cable/switch loss).
	Loss float64

	// Dup delivers the frame twice (switch transient, flooding relearn).
	Dup float64

	// Reorder adds a random extra delivery delay of up to ReorderSpan,
	// letting frames sent later overtake this one.
	Reorder float64

	// ReorderSpan bounds the extra delay of a reordered frame; zero means
	// the 50 µs default, comfortably wider than a frame's wire time.
	ReorderSpan sim.Time

	// Corrupt damages the frame's payload in flight. The receiving MAC's
	// FCS check fails and discards it, so the protocol sees a loss — but
	// the link counts it separately (ether_corrupts_total).
	Corrupt float64
}

// defaultReorderSpan is the extra-delay bound when Faults.ReorderSpan is 0.
const defaultReorderSpan = 50 * sim.Microsecond

type dir struct {
	eng    *sim.Engine
	wire   *sim.Resource
	bits   int64
	prop   sim.Time
	faults Faults
	fr     *flight.Journal
	// filter, when set, sees every frame after serialisation and before
	// fault injection; returning true drops the frame. Tests use it both
	// as a selective-drop hook and (returning false) as an observer.
	filter   func(*Frame) bool
	peer     Endpoint
	frames   telemetry.Counter
	bytes    telemetry.Counter
	drops    telemetry.Counter
	dups     telemetry.Counter
	reorders telemetry.Counter
	corrupts telemetry.Counter
}

// NewLink creates a link with the given line rate (bits/s) and propagation
// delay. Endpoints are attached with AttachA/AttachB before use.
func NewLink(eng *sim.Engine, name string, bitsPerSec int64, prop sim.Time) *Link {
	return &Link{
		eng: eng,
		ab:  &dir{eng: eng, wire: sim.NewResource(name+":a->b", 1), bits: bitsPerSec, prop: prop},
		ba:  &dir{eng: eng, wire: sim.NewResource(name+":b->a", 1), bits: bitsPerSec, prop: prop},
	}
}

// AttachA sets the endpoint on the A side; frames sent with SendFromB are
// delivered to it.
func (l *Link) AttachA(e Endpoint) { l.ba.peer = e }

// AttachB sets the endpoint on the B side; frames sent with SendFromA are
// delivered to it.
func (l *Link) AttachB(e Endpoint) { l.ab.peer = e }

// SendFromA transmits a frame from the A side, blocking the calling
// process for the serialisation time. Delivery to the B endpoint happens
// one propagation delay after the last bit leaves.
func (l *Link) SendFromA(p *sim.Proc, f *Frame) { l.ab.send(p, f) }

// SendFromB transmits a frame from the B side.
func (l *Link) SendFromB(p *sim.Proc, f *Frame) { l.ba.send(p, f) }

func (d *dir) send(p *sim.Proc, f *Frame) {
	if f.FlightID != 0 {
		// Begin is idempotent per (frame, stage): the span opens at the
		// first hop (sender NIC → switch) and stays open through the
		// second (switch → receiver NIC); the receiving adapter ends it.
		d.fr.Begin(d.wire.Name(), f.FlightID, trace.SpanWire, int64(p.Now()))
	}
	d.wire.Acquire(p)
	p.Sleep(f.WireTime(d.bits))
	d.wire.Release(p.Engine())
	d.frames.Inc()
	d.bytes.Addn(int64(f.WireBytes()))
	peer := d.peer
	if peer == nil {
		panic("ether: link direction has no endpoint attached")
	}
	if d.filter != nil && d.filter(f) {
		d.drops.Inc()
		return
	}
	rng := d.eng.Rand()
	if d.faults.Corrupt > 0 && rng.Float64() < d.faults.Corrupt {
		// The payload is damaged in flight; the receiving MAC's FCS check
		// fails and the frame is silently discarded.
		d.corrupts.Inc()
		return
	}
	if d.faults.Loss > 0 && rng.Float64() < d.faults.Loss {
		d.drops.Inc()
		return
	}
	deliveries := 1
	if d.faults.Dup > 0 && rng.Float64() < d.faults.Dup {
		d.dups.Inc()
		deliveries = 2
	}
	for i := 0; i < deliveries; i++ {
		delay := d.prop
		if d.faults.Reorder > 0 && rng.Float64() < d.faults.Reorder {
			span := d.faults.ReorderSpan
			if span <= 0 {
				span = defaultReorderSpan
			}
			delay += sim.Time(rng.Int63n(int64(span))) + 1
			d.reorders.Inc()
		}
		p.Engine().After(delay, "deliver", func() { peer.DeliverFrame(f) })
	}
}

// Instrument registers the link's per-direction counters and a
// link-utilization gauge (wire busy time over elapsed simulated time)
// in a telemetry registry under the given link name.
func (l *Link) Instrument(reg *telemetry.Registry, name string) {
	for _, d := range []struct {
		d   *dir
		tag string
	}{{l.ab, "a->b"}, {l.ba, "b->a"}} {
		dd := d.d
		labels := []telemetry.Label{telemetry.L("link", name), telemetry.L("dir", d.tag)}
		reg.RegisterCounter("ether_frames_total", "frames serialised onto this link direction", &dd.frames, labels...)
		reg.RegisterCounter("ether_bytes_total", "wire bytes (preamble+header+payload+FCS+IFG) serialised", &dd.bytes, labels...)
		reg.RegisterCounter("ether_drops_total", "frames lost to injected faults", &dd.drops, labels...)
		reg.RegisterCounter("ether_dups_total", "frames delivered twice by injected duplication", &dd.dups, labels...)
		reg.RegisterCounter("ether_reorders_total", "frames delayed by injected reordering", &dd.reorders, labels...)
		reg.RegisterCounter("ether_corrupts_total", "frames discarded by the receiver's FCS after injected corruption", &dd.corrupts, labels...)
		reg.GaugeFunc("ether_link_utilization", "fraction of simulated time the wire spent serialising",
			func() float64 {
				now := dd.eng.Now()
				if now == 0 {
					return 0
				}
				return float64(dd.wire.BusyTime()) / float64(now)
			}, labels...)
	}
}

// HealthSnapshot reports both directions' counters and utilization for
// the health document, under the given link name. Utilization is wire
// busy time over elapsed simulated time, as for ether_link_utilization.
func (l *Link) HealthSnapshot(name string) []health.LinkSnapshot {
	out := make([]health.LinkSnapshot, 0, 2)
	for _, d := range []struct {
		d   *dir
		tag string
	}{{l.ab, "a->b"}, {l.ba, "b->a"}} {
		dd := d.d
		var util float64
		if now := dd.eng.Now(); now > 0 {
			util = float64(dd.wire.BusyTime()) / float64(now)
		}
		out = append(out, health.LinkSnapshot{
			Link:        name,
			Dir:         d.tag,
			Frames:      dd.frames.Value(),
			Bytes:       dd.bytes.Value(),
			Drops:       dd.drops.Value(),
			Dups:        dd.dups.Value(),
			Reorders:    dd.reorders.Value(),
			Corrupts:    dd.corrupts.Value(),
			Utilization: util,
		})
	}
	return out
}

// SetFlight attaches a flight recorder journal to both directions: each
// recorded frame's wire span opens when the frame reaches the wire
// (including any wait for an ongoing serialisation) and is closed by the
// receiving adapter, so the span covers serialisation, switching and
// propagation end to end.
func (l *Link) SetFlight(j *flight.Journal) {
	l.ab.fr = j
	l.ba.fr = j
}

// SetLossRate injects random frame loss on both directions, for fault
// testing. Rate is a probability in [0,1). It preserves any other faults
// already configured.
func (l *Link) SetLossRate(rate float64) {
	l.ab.faults.Loss = rate
	l.ba.faults.Loss = rate
}

// SetFaults configures the full fault-injection set (loss, duplication,
// reordering, corruption) on both directions.
func (l *Link) SetFaults(f Faults) {
	l.ab.faults = f
	l.ba.faults = f
}

// FilterFromA installs a hook over frames sent from the A side: it runs
// after serialisation and before fault injection, and returning true drops
// the frame. A hook that always returns false is a pure observer. Passing
// nil removes the hook.
func (l *Link) FilterFromA(fn func(*Frame) bool) { l.ab.filter = fn }

// FilterFromB is FilterFromA for frames sent from the B side.
func (l *Link) FilterFromB(fn func(*Frame) bool) { l.ba.filter = fn }

// Drops reports frames lost to injected faults, both directions.
func (l *Link) Drops() int64 { return l.ab.drops.Value() + l.ba.drops.Value() }

// Dups reports frames duplicated by injection, both directions.
func (l *Link) Dups() int64 { return l.ab.dups.Value() + l.ba.dups.Value() }

// Reorders reports frames delayed by injected reordering, both directions.
func (l *Link) Reorders() int64 { return l.ab.reorders.Value() + l.ba.reorders.Value() }

// Corrupts reports frames discarded after injected corruption, both
// directions.
func (l *Link) Corrupts() int64 { return l.ab.corrupts.Value() + l.ba.corrupts.Value() }

// FramesAB and FramesBA report per-direction frame counts (for tests).
func (l *Link) FramesAB() int64 { return l.ab.frames.Value() }

// FramesBA reports frames sent from the B side.
func (l *Link) FramesBA() int64 { return l.ba.frames.Value() }
