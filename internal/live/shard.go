package live

import (
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// rxShard is one receive shard: a UDP socket bound (with SO_REUSEPORT
// when the node runs more than one shard) to the node's port, with its
// own pooled batch reader and rxLoop goroutine. The kernel's REUSEPORT
// flow hash routes all datagrams of one remote 4-tuple to one socket,
// so a given peer's data and acks always land on the same shard and
// per-channel receive state keeps exactly one reader — the
// single-reader ownership invariants (rc.ackBuf, pending dispatch) hold
// per shard without new locks. The reader is whoever holds the shard's
// token: always rxLoop on a multi-shard node; on a single-socket node
// also a goroutine blocked in Recv (the direct-call rung, readDirect).
type rxShard struct {
	id   int
	conn *net.UDPConn

	// raw drives the batched syscalls (sendmmsg/recvmmsg on Linux)
	// through the runtime poller.
	raw syscall.RawConn

	// The reader role, a token of which exactly one exists (so no send
	// blocks). baton holds it while nobody reads and a Recv caller may
	// take it; handback carries it straight to rxLoop. waiters counts
	// the Recv callers parked on it, stalled the goroutines blocked on
	// receive progress that cannot read (rxWait). rxLoop's takeover
	// clock (napRx): nap fires rxTakeover after the token was freed with
	// releases at armed (a fire nobody took is dropped at the next
	// arming); watch asks the next release to restart the clock.
	baton    chan struct{}
	handback chan struct{}
	waiters  atomic.Int32
	stalled  atomic.Int32
	nap      *time.Timer
	releases atomic.Uint64
	armed    atomic.Uint64
	watch    atomic.Bool

	// Owned by the token's holder (the token's channel operations order
	// one holder's writes before the next one's reads): the batch
	// reader, the channels the current burst touched, the direct rung's
	// count of shallow bursts in a row, the port the holder is a Recv
	// caller for (-1 for rxLoop), and got/gotOK, where deliver leaves
	// that caller's message instead of queueing it.
	br      *batchReader
	touched []*liveRxChan
	shallow int
	want    int32
	got     Message
	gotOK   bool

	// Per-shard receive stats, written by this shard's reader and
	// exported with a shard label; the node-level figures are their sums.
	bursts telemetry.Counter
	frames telemetry.Counter
	direct telemetry.Counter
}

// helloReply is what the receive loop hands a parked Handshake waiter:
// the remote node id from the hello-ack and the edge it advertised.
type helloReply struct {
	peer int
	edge uint32
}
