// Package health is the introspection layer the protocol stacks expose
// themselves through: point-in-time state snapshots ("what state is the
// channel to peer 3 in, and why is it stalled?") and a watchdog that
// scans those snapshots, classifies stall conditions and logs each
// verdict's raise and clear on log/slog. Single protocol incidents
// (retransmits, backoffs, NACKs, failures) are not logged: each one is
// a telemetry counter and a flight-recorder point.
//
// The package deliberately knows nothing about the stacks. Each stateful
// layer (live node, sim CLIC endpoint, ether link) implements a cheap,
// lock-narrow Snapshot method producing the structs below; health
// aggregates them into one JSON document (served at /debug/clic by
// cliclive, dumped to a file by clicsim, rendered by clicstat) and runs
// the watchdog over consecutive captures. Timestamps are int64
// nanoseconds on whichever clock drives the stack — wall clock for
// internal/live, simulated time for the sim cluster — and the Doc labels
// which (Clock), so the watchdog works identically over both through a
// now() seam.
package health

// ChannelSnapshot is the state of one direction of one peer channel.
// TX channels fill the window/RTO fields; RX channels fill the
// resequencer fields. Sequence numbers are the raw 32-bit modular
// values from internal/relwin.
type ChannelSnapshot struct {
	Peer int    `json:"peer"`
	Dir  string `json:"dir"` // "tx" or "rx"

	// Window occupancy (TX): InFlight frames are unacknowledged out of
	// Window slots; NextSeq is the next sequence Push will assign and
	// AckedSeq the oldest unacknowledged one (== NextSeq when idle).
	Window   int    `json:"window,omitempty"`
	InFlight int    `json:"in_flight"`
	NextSeq  uint32 `json:"next_seq"`
	AckedSeq uint32 `json:"acked_seq"`

	// Retransmission state (TX), from the channel's rto.Controller.
	RTONs    int64 `json:"rto_ns,omitempty"`
	SRTTNs   int64 `json:"srtt_ns,omitempty"`
	RTTVarNs int64 `json:"rttvar_ns,omitempty"`
	Retries  int   `json:"retries,omitempty"`
	Failed   bool  `json:"failed,omitempty"`

	// Flow control (TX): Credit is the peer's grant in frames past
	// AckedSeq (the highest edge its acks carried, minus AckedSeq), and
	// InFlightCap the configured per-peer in-flight cap (0 = window
	// only). When flow control narrows the send limit, Window above
	// reports the *effective* limit — min(window, cap, credit) — so
	// watchdog stall conditions keep firing for capped or edge-bound
	// channels.
	Credit      int `json:"credit,omitempty"`
	InFlightCap int `json:"in_flight_cap,omitempty"`

	// Resequencer state (RX): CumAck is the next expected sequence,
	// Parked the out-of-order frames buffered behind a gap, SinceAck
	// the delivered-but-unacknowledged count. AdvEdge is the highest
	// edge the channel advertised to its peer (AdvEdge - CumAck frames
	// are granted).
	CumAck   uint32 `json:"cum_ack,omitempty"`
	Parked   int    `json:"parked,omitempty"`
	SinceAck int    `json:"since_ack,omitempty"`
	AdvEdge  uint32 `json:"adv_edge,omitempty"`

	// LastProgressNs is when the channel last made forward progress
	// (ack advance for TX, in-order delivery for RX) on the stack's
	// clock; creation time until then. The watchdog's stall conditions
	// are defined against it.
	LastProgressNs int64 `json:"last_progress_ns"`
}

// PoolSnapshot is the frame-pool ledger: Outstanding = Gets - Puts is
// the number of pooled buffers currently out (retained by windows,
// parked in resequencers, staged for a burst write). The watchdog's
// leak condition compares it against what the channels account for.
type PoolSnapshot struct {
	Gets        int64 `json:"gets"`
	Puts        int64 `json:"puts"`
	Allocs      int64 `json:"allocs"`
	Outstanding int64 `json:"outstanding"`
}

// Conventional Counters keys the watchdog understands. Stacks populate
// whichever they track; absent keys disable the conditions needing them.
const (
	// CounterTxFrames counts frames handed to the wire (including
	// retransmissions).
	CounterTxFrames = "tx_frames"

	// CounterRxWakeups counts receive-side wakeups (socket read bursts
	// for the live stack). A node sending with zero RX wakeups is
	// starved, not just slow.
	CounterRxWakeups = "rx_wakeups"
)

// ShardSnapshot is the receive activity of one RX socket shard. Direct
// is how many of its bursts an application goroutine blocked in Recv
// read itself (the live direct-call rung); they count in Bursts too.
type ShardSnapshot struct {
	Shard  int   `json:"shard"`
	Bursts int64 `json:"bursts"`
	Frames int64 `json:"frames"`
	Direct int64 `json:"direct,omitempty"`
}

// NodeSnapshot is one endpoint's full state capture.
type NodeSnapshot struct {
	Node       string `json:"node"`
	CapturedNs int64  `json:"captured_ns"`

	// Socket/link configuration worth having next to the live state.
	MTU     int `json:"mtu,omitempty"`
	Window  int `json:"window,omitempty"`
	SockBuf int `json:"sock_buf,omitempty"`

	Pool     *PoolSnapshot     `json:"pool,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Shards   []ShardSnapshot   `json:"shards,omitempty"`
	Channels []ChannelSnapshot `json:"channels,omitempty"`
}

// LinkSnapshot is one direction of a simulated ether link.
type LinkSnapshot struct {
	Link        string  `json:"link"`
	Dir         string  `json:"dir"`
	Frames      int64   `json:"frames"`
	Bytes       int64   `json:"bytes"`
	Drops       int64   `json:"drops,omitempty"`
	Dups        int64   `json:"dups,omitempty"`
	Reorders    int64   `json:"reorders,omitempty"`
	Corrupts    int64   `json:"corrupts,omitempty"`
	Utilization float64 `json:"utilization"`
}

// Doc is the aggregated health document: what /debug/clic serves and
// clicstat reads.
type Doc struct {
	CapturedNs int64          `json:"captured_ns"`
	Clock      string         `json:"clock"` // "wall" or "sim"
	Nodes      []NodeSnapshot `json:"nodes"`
	Links      []LinkSnapshot `json:"links,omitempty"`
}

// Source is anything that can capture a NodeSnapshot. Implementations
// must be safe to call from any goroutine and lock-narrow: a capture
// takes each per-channel lock briefly, never a whole-node lock across
// the walk, so snapshotting a busy node does not stall its datapath.
type Source interface {
	HealthSnapshot() NodeSnapshot
}

// Capture builds a Doc from sources on the given clock. now is the
// stack's clock (wall or sim nanoseconds).
func Capture(clock string, now int64, sources ...Source) Doc {
	doc := Doc{CapturedNs: now, Clock: clock}
	for _, s := range sources {
		if s == nil {
			continue
		}
		doc.Nodes = append(doc.Nodes, s.HealthSnapshot())
	}
	return doc
}
