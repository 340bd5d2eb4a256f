// Package flight is the always-on flight recorder: a fixed-capacity
// ring-buffer journal of per-frame lifecycle events — span begin/end per
// pipeline stage plus instantaneous point events (NACK, retransmit, RTO
// backoff, coalesce flush, drop) — correlated by a frame id that rides the
// frame from send syscall to the receiver's copy-to-user.
//
// The journal records every frame, cheaply: the ring grows on demand up
// to its capacity and then overwrites its oldest events like an aircraft
// flight recorder, so memory is bounded no matter how long the run, and
// a nil *Journal is a fully functional disabled recorder whose methods
// cost one nil check (benchmark-guarded in bench_test.go). All methods are safe for concurrent use — the live UDP
// stack records from several goroutines — and the critical sections are
// a few slice/map operations.
//
// The journal exports three ways: Chrome Trace JSON with cross-node flow
// events (chrome.go), per-stage latency histograms in a telemetry
// registry (InstrumentStages), and aggregate Fig. 7-style breakdowns
// (analyze.go).
package flight

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Kind classifies a journal event.
type Kind uint8

// Event kinds.
const (
	// KindBegin opens a span: the frame entered a pipeline stage.
	KindBegin Kind = iota

	// KindEnd closes the span opened by the matching KindBegin.
	KindEnd

	// KindPoint is an instantaneous incident (retransmit, drop, ...).
	KindPoint

	// KindResource marks a hardware-resource busy span: Name is the
	// resource track, At..At+Arg the busy interval, Frame 0. It puts CPU,
	// PCI and memory-bus occupancy inside the same export as the frames.
	KindResource
)

// Event is one journal entry. At is in the recording clock's nanoseconds
// (simulated time for the sim stack, wall clock for the live stack); Arg
// carries event-specific detail (a sequence number, a count, a duration
// for KindResource).
type Event struct {
	Frame uint64
	At    int64
	Arg   int64
	Kind  Kind
	Node  string
	Name  string
}

// spanKey identifies an open span. The node is deliberately absent: the
// wire span begins on the sender and ends at the receiver's NIC, and the
// frame id already makes the pair unambiguous for unicast traffic (a
// flooded broadcast may lose a histogram sample per extra receiver; the
// journal events themselves are always recorded).
type spanKey struct {
	frame uint64
	stage string
}

type openSpan struct {
	at   int64
	node string
}

// maxOpen bounds the open-span map: a frame whose End never arrives (a
// lost frame awaiting retransmission) must not leak an entry forever.
const maxOpen = 4096

// Journal is the flight recorder. A nil Journal is the disabled
// recorder: every method is a nil-check no-op, so instrumented code
// carries no conditional clutter and ~zero cost when recording is off.
type Journal struct {
	frameID atomic.Uint64

	mu       sync.Mutex
	ring     []Event
	capacity int    // len(ring) never exceeds it
	total    uint64 // events ever appended; ring holds the last len(ring)
	open     map[spanKey]openSpan
	reg      *telemetry.Registry
	hists    map[string]*telemetry.Histogram
}

// DefaultCapacity holds ~64k events — roughly 4k frames at the CLIC
// pipeline's ~16 events per frame.
const DefaultCapacity = 1 << 16

// RunCapacity sizes a journal that records a whole simulated run for
// export, resource busy spans included: a 100-message stream of 64 KiB
// (~150k events) fits with room to spare. The ring grows as events
// arrive, so a short run pays only for what it records.
const RunCapacity = 1 << 20

// New creates a journal holding the last capacity events (DefaultCapacity
// when capacity <= 0). The ring grows as events arrive, so a large
// capacity costs memory only for a run that fills it.
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{
		capacity: capacity,
		open:     map[spanKey]openSpan{},
		hists:    map[string]*telemetry.Histogram{},
	}
}

// InstrumentStages attaches a telemetry registry: every span closed from
// now on also feeds a clic_stage_latency_ns{stage=...} histogram, the
// aggregate Fig. 7 view next to the event-level journal.
func (j *Journal) InstrumentStages(reg *telemetry.Registry) {
	if j == nil || reg == nil {
		return
	}
	j.mu.Lock()
	j.reg = reg
	j.mu.Unlock()
}

// histFor returns the per-stage latency histogram, creating it lazily.
// Called with j.mu held.
func (j *Journal) histFor(stage string) *telemetry.Histogram {
	if j.reg == nil {
		return nil
	}
	h, ok := j.hists[stage]
	if !ok {
		h = j.reg.Histogram("clic_stage_latency_ns",
			"per-frame pipeline stage latency from the flight recorder",
			telemetry.DefLatencyBuckets(), telemetry.L("stage", stage))
		j.hists[stage] = h
	}
	return h
}

// NewFrameID allocates the next frame correlation id (never 0; 0 means
// "no frame", used for channel-level point events and kernel spans).
func (j *Journal) NewFrameID() uint64 {
	if j == nil {
		return 0
	}
	return j.frameID.Add(1)
}

// append adds one event to the ring, overwriting the oldest once full.
// Called with j.mu held.
func (j *Journal) append(ev Event) {
	if len(j.ring) < j.capacity {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.total%uint64(j.capacity)] = ev
	}
	j.total++
}

// Begin opens the frame's span for a stage at time at. A Begin for a
// stage the frame already has open is ignored, so a span that straddles
// several hops (the wire span crosses two links through the switch)
// starts at the first hop and a retransmission of a still-open frame
// does not reset the clock.
func (j *Journal) Begin(node string, frame uint64, stage string, at int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	key := spanKey{frame: frame, stage: stage}
	if _, dup := j.open[key]; !dup {
		if len(j.open) < maxOpen {
			j.open[key] = openSpan{at: at, node: node}
		}
		j.append(Event{Frame: frame, At: at, Kind: KindBegin, Node: node, Name: stage})
	}
	j.mu.Unlock()
}

// End closes the frame's open span for a stage at time at, feeding the
// stage's latency histogram when a matching Begin is known. An End with
// no open Begin (the Begin was overwritten, or never recorded) still
// journals the event so the export can show the partial span.
func (j *Journal) End(node string, frame uint64, stage string, at int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	key := spanKey{frame: frame, stage: stage}
	if o, ok := j.open[key]; ok {
		delete(j.open, key)
		if h := j.histFor(stage); h != nil && at >= o.at {
			h.Observe(float64(at - o.at))
		}
	}
	j.append(Event{Frame: frame, At: at, Kind: KindEnd, Node: node, Name: stage})
	j.mu.Unlock()
}

// Span records a complete begin/end pair in one call — the common case
// for stages that start and finish in the same function. It bypasses the
// open-span map, so concurrent same-stage spans for frame 0 (kernel
// bottom-half dispatches on several nodes) never collide.
func (j *Journal) Span(node string, frame uint64, stage string, begin, end int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.append(Event{Frame: frame, At: begin, Kind: KindBegin, Node: node, Name: stage})
	j.append(Event{Frame: frame, At: end, Kind: KindEnd, Node: node, Name: stage})
	if h := j.histFor(stage); h != nil && end >= begin {
		h.Observe(float64(end - begin))
	}
	j.mu.Unlock()
}

// Point records an instantaneous event. arg carries event detail (a
// sequence number, a coalesced-frame count); frame may be 0 for
// channel-level incidents.
func (j *Journal) Point(node string, frame uint64, name string, at, arg int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.append(Event{Frame: frame, At: at, Arg: arg, Kind: KindPoint, Node: node, Name: name})
	j.mu.Unlock()
}

// Resource records a hardware-resource busy span (a sim.Resource OnSpan
// subscription feeds this), so one exported trace carries both frame
// lifecycles and CPU/bus occupancy. track is the resource name.
func (j *Journal) Resource(track string, begin, end int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.append(Event{At: begin, Arg: end - begin, Kind: KindResource, Name: track})
	j.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ring)
}

// Total reports how many events were ever recorded (Total - Len were
// overwritten).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Summary says how many events the ring holds and, once it has wrapped,
// how many older ones it overwrote — the bound on what an export shows.
func (j *Journal) Summary() string {
	n, total := j.Len(), j.Total()
	if lost := total - uint64(n); lost > 0 {
		return fmt.Sprintf("%d flight events (%d older events overwritten)", n, lost)
	}
	return fmt.Sprintf("%d flight events", n)
}

// Snapshot copies the journal's events in recording order, oldest first.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.total <= uint64(j.capacity) {
		return append([]Event(nil), j.ring...)
	}
	head := int(j.total % uint64(j.capacity))
	out := make([]Event, 0, len(j.ring))
	out = append(out, j.ring[head:]...)
	return append(out, j.ring[:head]...)
}

// FrameID derives a stable correlation id from a node id and a channel
// sequence number — the live stack's scheme, where sender and receiver
// must compute the same id from the datagram header alone (the sim stack
// instead allocates with NewFrameID and lets the id ride the shared
// frame pointer).
func FrameID(node int, seq uint32) uint64 {
	return uint64(node+1)<<32 | uint64(seq)
}
