// Package live is the wire-accurate CLIC implementation run over real
// UDP sockets: the same wire format (internal/proto) and reliability
// core (internal/relwin) as the simulated protocol, on the loopback
// interface — the closest raw-socket approximation to a kernel Ethernet
// protocol available to a pure-Go process. Beyond functional fidelity
// (framing, fragmentation, sequencing, cumulative acks, NACK and RTO
// repair, remote write, confirmation, injectable faults), the
// datapath mirrors the paper's three Gigabit upgrades (§4):
//
//   - 0-copy framing: a sync.Pool of MTU-sized frame buffers is shared
//     by TX and RX; headers are encoded in place (proto.Header.Put) and
//     the retransmit window retains the pooled buffer itself — the
//     bytes on the wire are the bytes the window would retransmit, with
//     no intermediate copy (Fig. 1 path 2).
//   - Jumbo frames and interrupt coalescing: a burst of fragments
//     crosses the kernel as one superframe on both sides (UDP-GSO send,
//     UDP_GRO receive, recvmmsg over several of them on Linux) and is
//     answered with at most one cumulative ack per peer — fewer, larger
//     units through the per-frame path, the way jumbo frames and the
//     NIC's interrupt moderation amortise it (§4.2).
//   - Lock sharding: each peer channel has its own lock; the node-level
//     lock only guards the registration tables, so concurrent senders
//     to different peers never serialise, and no lock is held across a
//     socket write on the TX fast path.
package live

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"time"

	"repro/internal/flight"
	"repro/internal/lockcheck"
	"repro/internal/proto"
	"repro/internal/telemetry"
)

// The declared lock hierarchy (DESIGN.md §8): every lock in this
// package carries a `//lockorder:` rank, ranks strictly increase
// inward (outer lock first, inner lock higher), and the cliclint
// lockorder/blockunderlock analyzers enforce the declaration at build
// time while the lockcheck wrappers assert it at runtime under
// `-tags lockcheck`. Locks that share a rank (the per-channel tx/rx
// mutexes) are order-free with respect to each other and must never
// nest. The socket reader's token (rxShard.baton) is a channel, not a
// mutex, and outermost: taken with no lock held, held across the read.
const (
	rankSendMu = 10 // per-channel message atomicity; declared blockok (spans socket writes)
	rankLife   = 15 // lmu: handshake rendezvous + lifecycle bookkeeping
	rankChanMu = 20 // per-channel tx/rx state (tc.mu, rc.mu)
	rankPeers  = 30 // pmu: registration tables
	rankRegion = 40 // per-region remote-write buffer
	rankInject = 60 // imu: fault-injection rng
)

// Config tunes a live node.
type Config struct {
	// MTU bounds the CLIC payload per datagram (header included), like
	// the Ethernet MTU bounds a frame. It is also the frame-pool buffer
	// class (with a small floor).
	MTU int

	// Window is the per-peer sliding window in frames.
	Window int

	// RetransmitTimeout is the initial retransmission timeout, used until
	// the first RTT sample; the per-peer estimator (internal/rto) then
	// adapts it to SRTT + 4·RTTVAR with exponential backoff on repeat
	// timeouts.
	RetransmitTimeout time.Duration

	// RTOMin and RTOMax clamp the adaptive timeout; zero derives them
	// from RetransmitTimeout.
	RTOMin time.Duration
	RTOMax time.Duration

	// MaxRetries bounds consecutive retransmission timeouts without ack
	// progress before the peer is declared dead and senders get
	// ErrPeerDead. Zero retries forever.
	MaxRetries int

	// Shards is the number of SO_REUSEPORT sockets the node binds to its
	// one port, each drained by its own receive goroutine with its own
	// pooled batch reader. The kernel's REUSEPORT flow hash pins every
	// peer's datagrams (data and acks alike — same 4-tuple) to one
	// socket, so per-peer channel state stays single-reader without any
	// cross-shard locking. 0 or 1 means a single socket; platforms
	// without SO_REUSEPORT support (non-Linux builds) clamp to 1.
	Shards int

	// PeerInFlight caps the unacknowledged frames a single peer channel
	// may hold in flight, below Window. Under fan-in this is the
	// isolation knob: one blackholed or slow peer retains at most this
	// many pooled frame buffers instead of a full window, so it cannot
	// starve the shared pool. 0 means no extra cap (the window rules).
	PeerInFlight int

	// PortDepth is the per-port delivery-queue depth in messages. Under
	// many-peer fan-in one slow consumer port would otherwise wedge the
	// shard receive loops; past this depth completed messages are
	// counted as port drops instead. 0 means 64.
	PortDepth int

	// LossRate, DupRate inject datagram loss/duplication on the send
	// side, in [0,1). ReorderRate delays individual datagrams by a random
	// amount up to reorderDelay so later traffic overtakes them. All
	// deterministic per Seed.
	LossRate    float64
	DupRate     float64
	ReorderRate float64
	Seed        int64

	// Telemetry, when non-nil, is the registry the node's metrics are
	// registered into (with a node=<id> label), letting several
	// in-process nodes share one export surface. Nil creates a private
	// registry, reachable through Node.Telemetry().
	Telemetry *telemetry.Registry

	// Flight, when non-nil, records per-datagram lifecycle spans
	// (module-send, wire, module-rx) and protocol point events on wall
	// clocks. Both ends of a link must share the journal for wire spans
	// to stitch; the frame id is derived from (sender, sequence) so the
	// two ends agree without any extra bytes on the wire.
	Flight *flight.Journal
}

// DefaultConfig returns sensible loopback settings.
func DefaultConfig() Config {
	return Config{
		MTU:               1500,
		Window:            32,
		RetransmitTimeout: 20 * time.Millisecond,
		RTOMin:            5 * time.Millisecond,
		RTOMax:            2 * time.Second,
		MaxRetries:        8,
	}
}

// Message is one delivered message.
type Message struct {
	Src  int
	Port uint16
	Data []byte
}

// Node is one live CLIC endpoint bound to a UDP socket.
//
// Locking is sharded the way the datapath is: pmu (read-mostly) guards
// the registration tables only; each peer channel carries its own
// mutex; counters are atomic. No state lock is held across a socket
// write (sendMu, the message-scope lock, deliberately spans the
// fragment flush and is declared blockok), and no lock is shared
// between traffic to different peers. Every lock carries a
// `//lockorder:` rank — see the rank constants above and DESIGN.md §8
// for the full hierarchy — checked statically by cliclint and at
// runtime under `-tags lockcheck`.
type Node struct {
	ID  int
	cfg Config

	// shards are the node's sockets: one, or Config.Shards SO_REUSEPORT
	// sockets bound to the same port, each with its own rxLoop
	// goroutine. The slice is immutable after NewNode, so fast paths
	// index it without a lock. TX channels pin to shardOf(peer) for
	// their writes; any shard may transmit to any peer (all sockets
	// share the local address), which is what lets a receive loop answer
	// acks from the socket the datagram arrived on.
	shards []*rxShard

	// rxPeers counts receive channels with live state — the divisor for
	// the advertised edge (the socket buffer is a shared resource the
	// receiver splits across its talkers).
	rxPeers atomic.Int64

	// pool recycles MTU-class frame buffers across the TX path (encode →
	// window retention → ack release) and the RX out-of-order parking.
	pool *framePool

	// txBurst is the fragment staging depth: what one superframe carries
	// at this node's MTU (see gsoMaxSegs). Computed once in NewNode.
	txBurst int

	// creditFrames is the receive budget the advertised edges divide
	// across peers: the sockets' aggregate SO_RCVBUF in frames, halved
	// for slack. Computed once in NewNode.
	creditFrames int64

	// lmu guards the handshake rendezvous table: Handshake parks a
	// waiter per remote address, the receive loop completes it when the
	// hello-ack arrives. Held only around map operations; the completion
	// send happens on a buffered channel outside the lock.
	//lockorder: rank=15 name=lmu
	lmu       lockcheck.Mutex
	helloWait map[netip.AddrPort]chan helloReply

	// pmu guards the registration tables below. All four maps are
	// written only on registration (AddPeer, first use of a channel or
	// port) and read on fast paths via RLock. It ranks ABOVE the
	// channel locks because the RX deliver path resolves ports (and
	// regions) while dispatch state is live; nothing may acquire a
	// channel lock while holding pmu — Close and AddPeer snapshot the
	// tables under pmu and visit channels after releasing it.
	//lockorder: rank=30 name=pmu
	pmu     lockcheck.RWMutex
	peers   map[int]netip.AddrPort
	peerIDs map[netip.AddrPort]int
	tx      map[int]*liveTxChan
	rx      map[int]*liveRxChan
	ports   map[uint16]chan Message
	regions map[uint16]*Region

	// imu guards the fault-injection randomness; faulty caches whether
	// any injection rate is non-zero so the clean fast path never takes
	// the lock. Innermost rank: nothing is taken under it.
	//lockorder: rank=60 name=imu
	imu    lockcheck.Mutex
	rng    *rand.Rand
	faulty bool

	closed atomic.Bool
	wg     sync.WaitGroup
	done   chan struct{}

	// Metrics. Counters are atomic (telemetry.Counter), so the socket's
	// reader, timer callbacks and sender goroutines may all touch
	// them without holding any lock — the live stack's counters are
	// exactly the shared state -race used to flag with plain ints.
	tel              *telemetry.Registry
	framesSent       telemetry.Counter
	framesRecv       telemetry.Counter
	retransmits      telemetry.Counter
	acksSent         telemetry.Counter
	piggybackAcks    telemetry.Counter
	ackProbes        telemetry.Counter
	dropsInjected    telemetry.Counter
	dupsInjected     telemetry.Counter
	reordersInjected telemetry.Counter
	dupFrames        telemetry.Counter
	socketWrites     telemetry.Counter
	socketReads      telemetry.Counter
	rtoBackoffs      telemetry.Counter
	channelFailures  telemetry.Counter
	poolGets         telemetry.Counter
	poolPuts         telemetry.Counter
	poolAllocs       telemetry.Counter
	rxHandoffs       telemetry.Counter
	portDrops        telemetry.Counter
	handshakes       telemetry.Counter
	peerEvictions    telemetry.Counter
	nacksSent        telemetry.Counter
	fastRetransmits  telemetry.Counter
	unknownFrames    telemetry.Counter
	ackLatency       *telemetry.Histogram

	// fr is the optional flight recorder (nil disables); nodeName labels
	// this node's spans in the shared journal.
	fr       *flight.Journal
	nodeName string
}

// poolBufClassFloor keeps the frame-buffer class usefully sized even
// under tiny test MTUs, so out-of-order parking of a peer's slightly
// larger datagrams stays on the pooled path.
const poolBufClassFloor = 2048

// sockBufBytes is the SO_RCVBUF/SO_SNDBUF each of a node's sockets asks
// for (best effort: the kernel clamps to rmem_max/wmem_max). A full
// jumbo-frame window per peer overruns the default ~200 KiB receive
// buffer, and every overrun is an invisible loss the sender recovers
// from only by timeout.
const sockBufBytes = 4 << 20

// NewNode binds a node to 127.0.0.1 on an ephemeral port — one socket,
// or Config.Shards SO_REUSEPORT sockets sharing that port, each with
// its own receive goroutine.
func NewNode(id int, cfg Config) (*Node, error) {
	shardCount := clampShards(cfg.Shards)
	conns, err := listenShards(shardCount)
	if err != nil {
		return nil, fmt.Errorf("live: bind: %w", err)
	}
	shards := make([]*rxShard, 0, len(conns))
	for i, conn := range conns {
		rawConn, err := conn.SyscallConn()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			for _, s := range shards {
				s.br.close()
			}
			return nil, fmt.Errorf("live: raw conn: %w", err)
		}
		conn.SetReadBuffer(sockBufBytes)  //nolint:errcheck // kernel clamps; degraded perf, not correctness
		conn.SetWriteBuffer(sockBufBytes) //nolint:errcheck // kernel clamps; degraded perf, not correctness
		shards = append(shards, &rxShard{id: i, conn: conn, raw: rawConn, br: newBatchReader(conn, rawConn),
			baton: make(chan struct{}, 1), handback: make(chan struct{}, 1),
			nap: time.NewTimer(rxTakeover), shallow: rxDirectAfter, want: -1})
	}
	n := &Node{
		ID:        id,
		cfg:       cfg,
		shards:    shards,
		peers:     map[int]netip.AddrPort{},
		peerIDs:   map[netip.AddrPort]int{},
		tx:        map[int]*liveTxChan{},
		rx:        map[int]*liveRxChan{},
		ports:     map[uint16]chan Message{},
		regions:   map[uint16]*Region{},
		helloWait: map[netip.AddrPort]chan helloReply{},
		rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(id))),
		faulty:    cfg.LossRate > 0 || cfg.DupRate > 0 || cfg.ReorderRate > 0,
		done:      make(chan struct{}),
		tel:       cfg.Telemetry,
		fr:        cfg.Flight,
		nodeName:  fmt.Sprintf("live%d", id),
	}
	n.lmu.SetRank(rankLife, "lmu")
	n.pmu.SetRank(rankPeers, "pmu")
	n.imu.SetRank(rankInject, "imu")
	mtu := cfg.MTU
	if mtu <= 0 {
		mtu = 1500
	}
	n.txBurst = max(1, min(gsoMaxSegs, gsoMaxBytes/mtu))
	n.creditFrames = int64(sockBufBytes) * int64(len(shards)) / int64(mtu) / 2
	if n.tel == nil {
		n.tel = telemetry.NewRegistry()
	}
	node := telemetry.L("node", fmt.Sprint(id))
	n.tel.RegisterCounter("live_frames_sent_total", "datagrams written to the socket: duplicates and delayed writes included, injected losses not", &n.framesSent, node)
	n.tel.RegisterCounter("live_frames_recv_total", "datagrams received and decoded", &n.framesRecv, node)
	n.tel.RegisterCounter("live_retransmits_total", "datagram retransmissions (RTO repairs and NACK repairs)", &n.retransmits, node)
	n.tel.RegisterCounter("live_acks_sent_total", "stand-alone acknowledgement datagrams returned (NACKs included, piggy-backed acks not)", &n.acksSent, node)
	n.tel.RegisterCounter("live_piggyback_acks_total", "cumulative acks carried on outgoing data frames (FlagAck) instead of a datagram of their own", &n.piggybackAcks, node)
	n.tel.RegisterCounter("live_ack_probes_total", "RTO expiries in a window that had asked for no ack: the head and newest frame resent with FlagAckReq, without backoff", &n.ackProbes, node)
	n.tel.RegisterCounter("live_loss_injected_total", "datagrams dropped by send-side loss injection", &n.dropsInjected, node)
	n.tel.RegisterCounter("live_dups_injected_total", "datagrams written twice by send-side duplication injection", &n.dupsInjected, node)
	n.tel.RegisterCounter("live_reorders_injected_total", "datagrams delayed by send-side reorder injection", &n.reordersInjected, node)
	n.tel.RegisterCounter("live_rx_dup_frames_total", "data frames received below the cumulative ack or already parked, dropped and re-acked", &n.dupFrames, node)
	n.tel.RegisterCounter("live_rto_backoffs_total", "retransmission-timeout expiries with an ack request outstanding (each doubles the adaptive RTO)", &n.rtoBackoffs, node)
	n.tel.RegisterCounter("live_channel_failures_total", "peers declared dead after MaxRetries consecutive timeouts", &n.channelFailures, node)
	n.tel.RegisterCounter("live_socket_writes_total", "UDP write syscalls issued (including duplicates)", &n.socketWrites, node)
	n.tel.RegisterCounter("live_socket_reads_total", "UDP datagrams read from the socket (each segment of a superframe counts)", &n.socketReads, node)
	n.tel.RegisterCounter("live_pool_gets_total", "frame buffers taken from the shared pool", &n.poolGets, node)
	n.tel.RegisterCounter("live_pool_puts_total", "frame buffers returned to the shared pool", &n.poolPuts, node)
	n.tel.RegisterCounter("live_pool_allocs_total", "frame buffers newly allocated on pool miss", &n.poolAllocs, node)
	for _, s := range n.shards {
		shard := telemetry.L("shard", fmt.Sprint(s.id))
		n.tel.RegisterCounter("live_rx_bursts_total", "receive wakeups, each draining a burst of one or more datagrams", &s.bursts, node, shard)
		n.tel.RegisterCounter("live_rx_direct_bursts_total", "receive bursts read by an application goroutine blocked in Recv (the direct-call rung)", &s.direct, node, shard)
		n.tel.RegisterCounter("live_rx_burst_frames_total", "datagrams drained by burst receives", &s.frames, node, shard)
		n.tel.RegisterCounter("live_rx_sock_drops_total", "datagrams the socket dropped for a full receive queue (SO_RXQ_OVFL; Linux only)", &s.br.drops, node, shard)
	}
	n.tel.RegisterCounter("live_rx_handoffs_total", "completed messages queued on a port for a Recv caller to take", &n.rxHandoffs, node)
	n.tel.RegisterCounter("live_port_drops_total", "completed messages dropped because the port queue was full", &n.portDrops, node)
	n.tel.RegisterCounter("live_handshakes_total", "hello exchanges completed (either side)", &n.handshakes, node)
	n.tel.RegisterCounter("live_peer_evictions_total", "peers fully removed by bye teardown", &n.peerEvictions, node)
	n.tel.RegisterCounter("live_nacks_sent_total", "acknowledgements sent as TypeNack: a hole outlived the burst that exposed it", &n.nacksSent, node)
	n.tel.RegisterCounter("live_fast_retransmits_total", "single head frames resent on a NACK, without waiting for the RTO", &n.fastRetransmits, node)
	n.tel.RegisterCounter("live_unknown_frames_total", "datagrams from a registered peer dropped for a packet type this stack does not handle", &n.unknownFrames, node)
	n.ackLatency = n.tel.Histogram("live_ack_latency_ns",
		"push of the oldest frame an ack released to that ack, wall-clock ns; one sample per ack, none when that frame was resent",
		telemetry.DefLatencyBuckets(), node)
	size := cfg.MTU
	if size < poolBufClassFloor {
		size = poolBufClassFloor
	}
	n.pool = newFramePool(size, &n.poolGets, &n.poolPuts, &n.poolAllocs)
	for _, s := range n.shards {
		n.wg.Add(1)
		go n.rxLoop(s)
	}
	return n, nil
}

// clampShards resolves Config.Shards: at least one socket, and no more
// than the platform supports (shardsSupported is 1 where SO_REUSEPORT
// sharding is unavailable).
func clampShards(want int) int {
	if want < 1 {
		return 1
	}
	if want > shardsSupported {
		return shardsSupported
	}
	return want
}

// shardFor returns the shard a peer's TX path writes through. The
// kernel picks the RX shard by flow hash; TX pinning just spreads send
// syscalls across sockets so shards don't contend on one write lock.
func (n *Node) shardFor(peer int) *rxShard {
	if peer < 0 {
		peer = -peer
	}
	return n.shards[peer%len(n.shards)]
}

// Telemetry returns the node's metrics registry (shared when
// Config.Telemetry was set).
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// Addr returns the node's UDP address for peer registration. All
// shard sockets share this address.
func (n *Node) Addr() *net.UDPAddr { return n.shards[0].conn.LocalAddr().(*net.UDPAddr) }

// Shards reports the number of receive shards the node is running.
func (n *Node) Shards() int { return len(n.shards) }

// canonAddrPort normalises an address for the peer tables: IPv4-mapped
// IPv6 forms (what net.IPv4 produces) and plain IPv4 forms (what the
// socket reports on receive) must hash identically.
func canonAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// AddPeer registers a peer node's address (the live analogue of the
// static MAC table).
func (n *Node) AddPeer(id int, addr *net.UDPAddr) {
	ap := canonAddrPort(addr.AddrPort())
	n.pmu.Lock()
	if old, ok := n.peers[id]; ok && old != ap {
		delete(n.peerIDs, old)
	}
	n.peers[id] = ap
	n.peerIDs[ap] = id
	tc := n.tx[id]
	rc := n.rx[id]
	n.pmu.Unlock()
	// Channels cache the peer address so fast paths skip the table; keep
	// the caches coherent on re-registration.
	if tc != nil {
		tc.mu.Lock()
		tc.addr = ap
		tc.mu.Unlock()
	}
	if rc != nil {
		rc.mu.Lock()
		rc.addr = ap
		rc.mu.Unlock()
	}
}

// Connect registers two nodes with each other.
func Connect(a, b *Node) {
	a.AddPeer(b.ID, b.Addr())
	b.AddPeer(a.ID, a.Addr())
}

// Close shuts the node down. A best-effort bye is sent to every
// registered peer so their side tears the channels down promptly
// instead of waiting out retry budgets. In-flight messages may be
// lost. Every channel's RTO timer is stopped so no timer callback
// outlives the node, and blocked senders and region waiters are woken.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	n.sendByes()
	close(n.done)
	// Snapshot the channel tables under pmu, then visit each channel
	// under its own lock with pmu already released. Channel locks rank
	// BELOW pmu — the RX deliver path resolves ports while channel
	// dispatch state is live — so nesting them under pmu here was a
	// genuine ABBA deadlock: Close held pmu waiting on rc.mu while the
	// rxLoop held rc.mu waiting on pmu (found by the lockorder
	// analyzer; the lockcheck runtime panics on the old shape).
	n.pmu.Lock()
	txs := make([]*liveTxChan, 0, len(n.tx))
	for _, tc := range n.tx {
		txs = append(txs, tc)
	}
	regions := make([]*Region, 0, len(n.regions))
	for _, r := range n.regions {
		regions = append(regions, r)
	}
	n.pmu.Unlock()
	for _, tc := range txs {
		tc.mu.Lock()
		tc.stopRTO()
		tc.slotFree.Broadcast()
		tc.mu.Unlock()
	}
	for _, r := range regions {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	var err error
	for _, s := range n.shards {
		if cerr := s.conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	n.wg.Wait()
	return err
}

// ErrClosed reports an operation on a closed node.
var ErrClosed = errors.New("live: node closed")

// ErrPeerDead reports that the channel to a peer exhausted its
// MaxRetries retransmission budget with no acknowledgement progress.
var ErrPeerDead = errors.New("live: peer dead after max retries")

// maxPayload is the CLIC payload per datagram after the header.
func (n *Node) maxPayload() int { return n.cfg.MTU - proto.HeaderBytes }

// txFor returns (creating on first use) the transmit channel to peer.
func (n *Node) txFor(peer int) (*liveTxChan, error) {
	n.pmu.RLock()
	tc := n.tx[peer]
	n.pmu.RUnlock()
	if tc != nil {
		return tc, nil
	}
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if tc := n.tx[peer]; tc != nil {
		return tc, nil
	}
	addr, ok := n.peers[peer]
	if !ok {
		return nil, fmt.Errorf("live: node %d has no peer %d", n.ID, peer)
	}
	tc = newTxChan(n, peer, addr)
	n.tx[peer] = tc
	return tc, nil
}

// rxFor returns (creating on first use) the receive channel from peer.
// Callers have already resolved peer through the address table, so the
// peer is known to be registered.
func (n *Node) rxFor(peer int) *liveRxChan {
	n.pmu.RLock()
	rc := n.rx[peer]
	n.pmu.RUnlock()
	if rc != nil {
		return rc
	}
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if rc := n.rx[peer]; rc != nil {
		return rc
	}
	rc = newRxChan(n, peer, n.peers[peer])
	n.rx[peer] = rc
	n.rxPeers.Add(1)
	return rc
}

// portChan returns (creating on first use) the delivery queue for port.
func (n *Node) portChan(port uint16) chan Message {
	n.pmu.RLock()
	ch := n.ports[port]
	n.pmu.RUnlock()
	if ch != nil {
		return ch
	}
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if ch := n.ports[port]; ch != nil {
		return ch
	}
	depth := n.cfg.PortDepth
	if depth <= 0 {
		depth = 64
	}
	ch = make(chan Message, depth)
	n.ports[port] = ch
	return ch
}

// Recv blocks for the next message on port. On a single-socket node a
// caller whose queue is empty waits for the message or for the socket's
// reader role, whichever comes first, and with the role reads the
// socket itself (readDirect). A multi-shard node keeps the bottom half:
// a caller cannot know which socket its message will arrive on, and it
// can park in only one poller.
func (n *Node) Recv(port uint16) (Message, error) {
	ch := n.portChan(port)
	if len(n.shards) > 1 {
		select {
		case msg := <-ch:
			return msg, nil
		case <-n.done:
			return Message{}, ErrClosed
		}
	}
	s := n.shards[0]
	for {
		select {
		case <-s.baton: // nobody reads the socket: read it
		default:
			s.waiters.Add(1)
			select {
			case msg := <-ch:
				s.waiters.Add(-1)
				return msg, nil
			case <-n.done:
				s.waiters.Add(-1)
				return Message{}, ErrClosed
			case <-s.baton:
				s.waiters.Add(-1)
			}
		}
		if msg, ok, err := n.readDirect(s, port, ch); ok {
			return msg, err
		}
	}
}

// TryRecv returns the next message on port if one is waiting.
func (n *Node) TryRecv(port uint16) (Message, bool) {
	ch := n.portChan(port)
	select {
	case msg := <-ch:
		return msg, true
	default:
		return Message{}, false
	}
}
