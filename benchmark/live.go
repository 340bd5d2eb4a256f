package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/live"
)

// liveSpec is one live workload: a receiver node, one or two sender nodes,
// one message size, and the size of every kind of round. The sizes are
// constants so that two commits do identical work in a round; a run makes
// as many rounds as its time allows.
type liveSpec struct {
	name    string
	size    int // message payload, bytes
	senders int // sender nodes; each streams to its own port and drain goroutine on the receiver
	config  func(seed int64) live.Config

	// streamMsgs is the messages per sender in a throughput round. 0 means
	// the depth-1 echo loop is the throughput round as well (ping-pong).
	streamMsgs int
	// echoes is the depth-1 echoes (sender 1 ↔ receiver) in a latency round.
	echoes int
	// warmMsgs and warmEchoes are the cold start's warm-up, verified byte
	// for byte.
	warmMsgs, warmEchoes int

	// ref is the host-speed reference sampled around every round.
	ref refShape
	// timerBound says that retransmission timers, not the processors, set
	// this workload's msgs_per_s: it does not follow the host's speed and is
	// reported as measured.
	timerBound bool
}

// The paper's 36 µs headline: per-message fixed cost and goroutine wake-ups
// are everything; fragmentation, batching, window and retransmission idle.
var pingpongSpec = liveSpec{
	name:       "live_pingpong",
	size:       0,
	senders:    1,
	config:     func(int64) live.Config { return live.DefaultConfig() },
	echoes:     2000,
	warmEchoes: 1500,
	ref:        zeroByteRef,
}

// The paper's bandwidth claim: 45 fragments per message, so fragmentation,
// UDP-GSO/sendmmsg, recvmmsg bursts, aggregation, reassembly, ack stride
// and credit do the work and the per-message wake-up is amortised.
var bulkSpec = liveSpec{
	name:    "live_bulk",
	size:    64 << 10,
	senders: 1,
	config: func(int64) live.Config {
		cfg := live.DefaultConfig()
		cfg.MTU = 1500
		cfg.Window = 64
		cfg.PortDepth = 8192 // ≥ one round's messages: deliver() drops acknowledged messages past this
		return cfg
	},
	streamMsgs: 600,
	echoes:     300,
	warmMsgs:   250,
	warmEchoes: 20,
	ref:        refShape{frags: 45, fragBytes: 1457, echoes: 50, nominalNs: 250e3},
}

// The same layers under loss, duplication and reordering from two peers:
// resequencer parking, RTO, go-back-N, pacing and the credit split set the
// pace while the fast path mostly waits.
var faninLossySpec = liveSpec{
	name:    "live_fanin_lossy",
	size:    8 << 10,
	senders: 2,
	config: func(seed int64) live.Config {
		cfg := live.DefaultConfig()
		cfg.Window = 64
		cfg.Shards = 2
		cfg.PeerInFlight = 16
		cfg.MaxRetries = 0 // retry forever: a loss burst must not fail an operation
		cfg.PortDepth = 8192
		cfg.LossRate, cfg.DupRate, cfg.ReorderRate = 0.005, 0.005, 0.005
		cfg.Seed = seed
		return cfg
	},
	streamMsgs: 1000,
	echoes:     150,
	warmMsgs:   500, // cold starts run without the faults, on the batched send path, at several times the lossy rate
	warmEchoes: 20,
	ref:        refShape{frags: 6, fragBytes: 1366, echoes: 300, nominalNs: 40e3},
	timerBound: true,
}

const (
	streamPortBase = 10  // sender i streams to receiver port streamPortBase+i
	echoPort       = 100 // echo requests to the receiver, replies to sender 1
	seqBytes       = 8   // per-flow sequence number at the head of every payload that has room
)

// flow is one direction of one message stream with its own sequence space.
type flow struct {
	buf      []byte // payload sent; the sequence number is rewritten in place
	nextSend uint64
	_        [64]byte // the two ends are written by different goroutines: keep them on different cache lines
	nextRecv uint64
	_        [64]byte
}

// rig is a connected set of nodes plus the per-flow state the checks need.
type rig struct {
	spec    *liveSpec
	acct    *account
	recv    *live.Node
	send    []*live.Node
	pattern []byte // seeded payload every message carries after its sequence number
	stream  []flow // one per sender
	echoReq flow   // sender 1 → receiver
	echoRep flow   // receiver → sender 1; carries the request's bytes back

	last      map[string]float64 // counters at the end of the previous round
	closeOnce sync.Once
}

// lifecycle is the timing of one cold start.
type lifecycle struct {
	total, newNode, handshake, close time.Duration
	slow                             float64 // host slowness around the cold start
}

// buildRig is one cold start: construct the nodes, handshake every sender
// with the receiver, and run the fixed warm-up, whose last echo is the first
// message of the timed size delivered. The caller closes the rig.
//
// With faults off the workload's injected loss, duplication and reordering
// are left out. The timed cold starts run that way: a lost hello costs a
// one-second handshake retry and every lost fragment an RTO, so with faults
// on setup_s would measure the seed's loss pattern, not the set-up.
func buildRig(spec *liveSpec, seed int64, faults bool, acct *account) (*rig, lifecycle, error) {
	var lc lifecycle
	start := time.Now()
	cfg := spec.config(seed)
	if !faults {
		cfg.LossRate, cfg.DupRate, cfg.ReorderRate = 0, 0, 0
	}
	r := &rig{spec: spec, acct: acct, pattern: make([]byte, spec.size), stream: make([]flow, spec.senders)}
	rand.New(rand.NewSource(seed)).Read(r.pattern)
	newBuf := func() []byte { return append([]byte(nil), r.pattern...) }
	for i := range r.stream {
		r.stream[i].buf = newBuf()
	}
	r.echoReq.buf = newBuf()

	t := time.Now()
	var err error
	if r.recv, err = live.NewNode(0, cfg); err != nil {
		return nil, lc, fmt.Errorf("receiver: %w", err)
	}
	for i := 0; i < spec.senders; i++ {
		n, err := newNodeOnOwnPort(i+1, cfg, r.nodes())
		if err != nil {
			r.close()
			return nil, lc, fmt.Errorf("sender %d: %w", i+1, err)
		}
		r.send = append(r.send, n)
	}
	lc.newNode = time.Since(t) / time.Duration(1+spec.senders)

	t = time.Now()
	for i, n := range r.send {
		if _, err := n.Handshake(r.recv.Addr(), 3*time.Second); err != nil {
			r.close()
			return nil, lc, fmt.Errorf("handshake of sender %d: %w", i+1, err)
		}
	}
	lc.handshake = time.Since(t) / time.Duration(spec.senders)

	if spec.warmMsgs > 0 {
		if _, err := r.streamRound(spec.warmMsgs, true, nil, 0); err != nil {
			r.close()
			return nil, lc, fmt.Errorf("warm-up stream: %w", err)
		}
	}
	if _, _, err := r.echoRound(spec.warmEchoes, nil, true, nil, 0); err != nil {
		r.close()
		return nil, lc, fmt.Errorf("warm-up echo: %w", err)
	}
	lc.total = time.Since(start)
	return r, lc, nil
}

// portCollisions counts the nodes newNodeOnOwnPort had to make again.
var portCollisions int

// newNodeOnOwnPort is live.NewNode, repeated while the new node shares its
// port with one of others. With Shards > 1 NewNode binds port 0 with
// SO_REUSEPORT already set, and the kernel may then hand out a port that
// another sharded node of this process holds (3 times in 20 000 rigs on the
// benchmark's host); the two nodes then split each other's datagrams and the
// handshake never completes. That is a defect of the stack, listed in
// README.md; it is not what any workload here measures.
func newNodeOnOwnPort(id int, cfg live.Config, others []*live.Node) (*live.Node, error) {
	for {
		n, err := live.NewNode(id, cfg)
		if err != nil {
			return nil, err
		}
		shared := false
		for _, o := range others {
			shared = shared || o.Addr().Port == n.Addr().Port
		}
		if !shared {
			return n, nil
		}
		portCollisions++
		n.Close()
	}
}

// close shuts every node down; safe to call more than once and from the
// watchdog.
func (r *rig) close() {
	r.closeOnce.Do(func() {
		for _, n := range r.send {
			n.Close()
		}
		if r.recv != nil {
			r.recv.Close()
		}
	})
}

// check verifies one delivered payload: length and sequence number always,
// the whole byte pattern when full is set.
func (r *rig) check(data []byte, want uint64, full bool) error {
	if len(data) != r.spec.size {
		return fmt.Errorf("message %d: got %d bytes, want %d", want, len(data), r.spec.size)
	}
	if len(data) < seqBytes {
		return nil
	}
	if got := binary.LittleEndian.Uint64(data); got != want {
		return fmt.Errorf("got message %d, want %d (lost, duplicated or out of order)", got, want)
	}
	if full && !bytes.Equal(data[seqBytes:], r.pattern[seqBytes:]) {
		return fmt.Errorf("message %d: payload corrupted", want)
	}
	return nil
}

// stamp writes the flow's next sequence number into its payload.
func (f *flow) stamp() uint64 {
	seq := f.nextSend
	f.nextSend++
	if len(f.buf) >= seqBytes {
		binary.LittleEndian.PutUint64(f.buf, seq)
	}
	return seq
}

// roundTracks are the tracks of the goroutines of one rig; all nil in an
// untraced run.
type roundTracks struct {
	main       *track
	send, recv []*track // stream goroutines, per sender
	client     *track   // echo client (sender 1)
	server     *track   // echo server (receiver)
}

// streamRound pushes n messages from every sender to its own port on the
// receiver, each port drained by its own goroutine, and returns the wall
// time from the first send to the last delivery.
func (r *rig) streamRound(n int, full bool, tk *roundTracks, parent spanID) (time.Duration, error) {
	r.acct.attempted.Add(int64(n * len(r.send)))
	errs := make([]error, 2*len(r.send))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range r.send {
		var sendTk, recvTk *track
		if tk != nil {
			sendTk, recvTk = tk.send[i], tk.recv[i]
		}
		f, node, port := &r.stream[i], r.send[i], uint16(streamPortBase+i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				seq := f.stamp()
				s := sendTk.begin(spanSend, parent, int64(seq))
				err := node.Send(0, port, f.buf)
				sendTk.end(s)
				if err != nil {
					errs[2*i] = fmt.Errorf("sender %d: %w", i+1, err)
					r.close()
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				s := recvTk.begin(spanRecv, parent, int64(f.nextRecv))
				msg, err := r.recv.Recv(port)
				recvTk.end(s)
				if err == nil {
					err = r.check(msg.Data, f.nextRecv, full)
				}
				if err != nil {
					errs[2*i+1] = fmt.Errorf("port %d: %w", port, err)
					r.close()
					return
				}
				f.nextRecv++
				r.acct.delivered.Add(1)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// echoRound runs n depth-1 echoes of the workload's message size between
// sender 1 and the receiver. Every round-trip time is appended to rtts (in
// ns) when rtts is non-nil. Messages count in both directions.
func (r *rig) echoRound(n int, rtts []int64, full bool, tk *roundTracks, parent spanID) ([]int64, time.Duration, error) {
	r.acct.attempted.Add(int64(2 * n))
	var clientTk, serverTk *track
	if tk != nil {
		clientTk, serverTk = tk.client, tk.server
	}
	client, req, rep := r.send[0], &r.echoReq, &r.echoRep
	serverErr := make(chan error, 1)
	go func() {
		for j := 0; j < n; j++ {
			s := serverTk.begin(spanRecv, parent, int64(req.nextRecv))
			msg, err := r.recv.Recv(echoPort)
			serverTk.end(s)
			if err == nil {
				err = r.check(msg.Data, req.nextRecv, full)
			}
			if err == nil {
				req.nextRecv++
				r.acct.delivered.Add(1)
				s = serverTk.begin(spanSend, parent, int64(rep.nextSend))
				err = r.recv.Send(client.ID, echoPort, msg.Data)
				serverTk.end(s)
				rep.nextSend++
			}
			if err != nil {
				r.close()
				serverErr <- fmt.Errorf("echo server: %w", err)
				return
			}
		}
		serverErr <- nil
	}()
	var clientErr error
	start := time.Now()
	prev := start
	for j := 0; j < n; j++ {
		seq := req.stamp()
		s := clientTk.begin(spanSend, parent, int64(seq))
		err := client.Send(0, echoPort, req.buf)
		clientTk.end(s)
		if err == nil {
			s = clientTk.begin(spanRecv, parent, int64(rep.nextRecv))
			var msg live.Message
			msg, err = client.Recv(echoPort)
			clientTk.end(s)
			if err == nil {
				err = r.check(msg.Data, rep.nextRecv, full)
			}
		}
		if err != nil {
			r.close()
			clientErr = fmt.Errorf("echo client: %w", err)
			break
		}
		rep.nextRecv++
		r.acct.delivered.Add(1)
		now := time.Now()
		if rtts != nil {
			rtts = append(rtts, int64(now.Sub(prev)))
		}
		prev = now
	}
	elapsed := time.Since(start)
	return rtts, elapsed, errors.Join(clientErr, <-serverErr)
}

// quiesce waits until no node of the rig has a frame in flight: every
// message of the round is acknowledged, so no retransmission or delayed-ack
// timer of the rig is left to fire inside the host-speed reference sample
// that follows. A rig that does not get there within the stall deadline has
// lost an acknowledgement for good, which is an error.
func (r *rig) quiesce() error {
	for start := time.Now(); ; time.Sleep(200 * time.Microsecond) {
		inFlight := 0
		for _, n := range r.nodes() {
			for _, ch := range n.HealthSnapshot().Channels {
				if ch.Dir == "tx" {
					inFlight += ch.InFlight
				}
			}
		}
		if inFlight == 0 {
			return nil
		}
		if time.Since(start) > stallDeadline {
			return fmt.Errorf("%d frames still unacknowledged %v after the round", inFlight, stallDeadline)
		}
	}
}

// nodes lists every node of the rig.
func (r *rig) nodes() []*live.Node { return append([]*live.Node{r.recv}, r.send...) }

// counters sums every counter and gauge over the rig's nodes, by name.
func (r *rig) counters() map[string]float64 {
	sum := map[string]float64{}
	for _, n := range r.nodes() {
		for _, m := range n.Telemetry().Snapshot() {
			if m.Value != nil {
				sum[m.Name] += *m.Value
			}
		}
	}
	return sum
}

// settle checks what must hold after every round, given the round's counter
// deltas: no message was dropped at a full port queue, and no message beyond
// the ones counted is waiting.
func (r *rig) settle(delta map[string]float64) error {
	var errs []error
	if drops := delta["live_port_drops_total"]; drops > 0 {
		r.acct.broken.Add(int64(drops))
		errs = append(errs, fmt.Errorf("%d messages dropped at a full port queue", int64(drops)))
	}
	stray := 0
	for i := range r.send {
		if _, ok := r.recv.TryRecv(uint16(streamPortBase + i)); ok {
			stray++
		}
	}
	if _, ok := r.recv.TryRecv(echoPort); ok {
		stray++
	}
	if _, ok := r.send[0].TryRecv(echoPort); ok {
		stray++
	}
	if stray > 0 {
		r.acct.broken.Add(int64(stray))
		errs = append(errs, fmt.Errorf("%d messages delivered more than once", stray))
	}
	return errors.Join(errs...)
}

// round is the record of one timed round.
type round struct {
	traced   bool
	msgs     int
	wall     time.Duration
	cpu      time.Duration
	slow     float64            // host slowness around the round
	p50      float64            // latency rounds: median one-way time, µs as measured
	counters map[string]float64 // telemetry deltas since the previous round
	mallocs  uint64             // heap figures, traced runs only
	bytes    uint64
}

func (rd round) msgsPerSec() float64 { return float64(rd.msgs) / rd.wall.Seconds() }
func (rd round) cpuUsPerMsg() float64 {
	return float64(rd.cpu.Nanoseconds()) / 1e3 / float64(rd.msgs)
}

// timedRound wraps one round with what is read at its boundaries, all
// outside the timed region: process CPU time, telemetry counters and, when
// heap is set, heap statistics (they stop the world). The garbage of the
// stretch before was collected by the reference sample that closed it.
func (r *rig) timedRound(heap bool, msgs int, tk *roundTracks, name spanName, body func(parent spanID) (time.Duration, error)) (round, error) {
	var main *track
	if tk != nil {
		main = tk.main
	}
	var m0, m1 runtime.MemStats
	if heap {
		runtime.ReadMemStats(&m0)
	}
	s := main.begin(name, 0, -1)
	cpu0 := cpuTime()
	wall, err := body(main.id(s))
	cpu := cpuTime() - cpu0
	main.end(s)
	if heap {
		runtime.ReadMemStats(&m1)
	}
	now := r.counters()
	delta := map[string]float64{}
	for k, v := range now {
		if d := v - r.last[k]; d != 0 {
			delta[k] = d
		}
	}
	r.last = now
	main.setArgs(s, delta)
	if err == nil {
		err = r.settle(delta)
	}
	return round{traced: tk != nil, msgs: msgs, wall: wall, cpu: cpu, counters: delta,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}, err
}

// minRounds is the least number of rounds of each kind a run makes, however
// short -seconds is.
const minRounds = 8

// runLive measures one live workload: cold starts, one build with an
// untimed warm-up round, then throughput rounds interleaved with latency
// rounds until the run's time is used. A sample of the host-speed reference
// sits between any two of them. In a traced run every second round of each
// kind records spans.
func runLive(spec *liveSpec, c runConfig, acct *account) (measurement, error) {
	var m measurement
	pingpong := spec.streamMsgs == 0
	ref, err := newHostRef(spec.ref)
	if err != nil {
		return m, err
	}
	defer ref.close()

	// 1. Cold starts.
	var cold []lifecycle
	for i := 0; i < scaled(nominalColdStarts, c.seconds, 3); i++ {
		r, lc, err := buildRig(spec, c.seed, false, acct)
		if err != nil {
			return m, fmt.Errorf("cold start %d: %w", i, err)
		}
		acct.setOnStall(r.close)
		t := time.Now()
		r.close()
		lc.close = time.Since(t) / time.Duration(len(r.nodes()))
		if lc.slow, err = ref.between(); err != nil {
			return m, err
		}
		cold = append(cold, lc)
	}

	// 2. Build once; one untimed warm-up round of each kind. The rig lives
	// for the whole run: a young rig is still settling its RTO and credit
	// estimates, and on live_fanin_lossy its first seconds read 10 % apart
	// from its later ones.
	r, _, err := buildRig(spec, c.seed, true, acct)
	if err != nil {
		return m, fmt.Errorf("build: %w", err)
	}
	defer r.close()
	acct.setOnStall(r.close)
	if !pingpong {
		if _, err := r.streamRound(spec.streamMsgs, false, nil, 0); err != nil {
			return m, fmt.Errorf("warm-up round: %w", err)
		}
	}
	if _, _, err := r.echoRound(spec.echoes, nil, false, nil, 0); err != nil {
		return m, fmt.Errorf("warm-up round: %w", err)
	}
	r.last = r.counters()
	// slowness closes a stretch on the quiet rig.
	slowness := func() (float64, error) {
		if err := r.quiesce(); err != nil {
			return 0, err
		}
		return ref.between()
	}
	if _, err := slowness(); err != nil {
		return m, err
	}

	var tr *tracer
	var tk *roundTracks
	if c.trace {
		tr = newTracer()
		const roundsHint = 64 // traced rounds the tracks have room for before they grow
		tk = &roundTracks{
			main:   tr.track("rounds", 4*roundsHint),
			client: tr.track("echo client (sender 1)", roundsHint*2*spec.echoes),
			server: tr.track("echo server (receiver)", roundsHint*2*spec.echoes),
		}
		for i := range r.send {
			tk.send = append(tk.send, tr.track(fmt.Sprintf("stream sender %d", i+1), roundsHint*spec.streamMsgs))
			tk.recv = append(tk.recv, tr.track(fmt.Sprintf("stream drain %d", i+1), roundsHint*spec.streamMsgs))
		}
	}

	// 3. Timed rounds. In ping-pong the latency round is the throughput
	// round too.
	var stream, echo []round
	var oneway []float64 // one-way times of the untraced latency rounds, µs as measured
	rtts := make([]int64, 0, spec.echoes)
	deadline := c.roundsDeadline()
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		var rtk *roundTracks
		if c.trace && i%2 == 1 {
			rtk = tk
		}
		if !pingpong {
			rd, err := r.timedRound(c.trace, spec.streamMsgs*spec.senders, rtk, spanStreamRound, func(parent spanID) (time.Duration, error) {
				return r.streamRound(spec.streamMsgs, false, rtk, parent)
			})
			if err != nil {
				return m, fmt.Errorf("throughput round %d: %w", i, err)
			}
			if rd.slow, err = slowness(); err != nil {
				return m, err
			}
			stream = append(stream, rd)
		}
		rd, err := r.timedRound(c.trace, 2*spec.echoes, rtk, spanEchoRound, func(parent spanID) (time.Duration, error) {
			var wall time.Duration
			var err error
			rtts, wall, err = r.echoRound(spec.echoes, rtts[:0], false, rtk, parent)
			return wall, err
		})
		if err != nil {
			return m, fmt.Errorf("latency round %d: %w", i, err)
		}
		if rd.slow, err = slowness(); err != nil {
			return m, err
		}
		half := make([]float64, len(rtts))
		for j, v := range rtts {
			half[j] = float64(v) / 2e3 // RTT ns → one-way µs
		}
		rd.p50 = median(half)
		if !rd.traced {
			oneway = append(oneway, half...)
		}
		echo = append(echo, rd)
	}
	if pingpong {
		stream = echo
	}

	// 4. End-to-end metrics, from the untraced rounds, each in units of the
	// host-speed reference measured around it.
	untraced := func(rs []round, f func(round) float64) []float64 {
		var out []float64
		for _, rd := range rs {
			if !rd.traced {
				out = append(out, f(rd))
			}
		}
		return out
	}
	perSec := func(rd round) float64 {
		if spec.timerBound {
			return rd.msgsPerSec()
		}
		return rd.msgsPerSec() * rd.slow
	}
	var setup, setupRaw, slows []float64
	for _, lc := range cold {
		setup = append(setup, lc.total.Seconds()/lc.slow)
		setupRaw = append(setupRaw, lc.total.Seconds())
		slows = append(slows, lc.slow)
	}
	slows = append(append(slows, untraced(stream, func(rd round) float64 { return rd.slow })...),
		untraced(echo, func(rd round) float64 { return rd.slow })...)
	oneway = sorted(oneway)
	msgsPerSec := median(untraced(stream, perSec))
	m.endToEnd = map[string]float64{
		"msgs_per_s":     msgsPerSec,
		"oneway_p50_us":  median(untraced(echo, func(rd round) float64 { return rd.p50 / rd.slow })),
		"cpu_us_per_msg": median(untraced(stream, func(rd round) float64 { return rd.cpuUsPerMsg() / rd.slow })),
		"setup_s":        median(setup),
	}
	raw := map[string]float64{
		"raw.msgs_per_s":     median(untraced(stream, round.msgsPerSec)),
		"raw.oneway_p50_us":  percentile(oneway, 50),
		"raw.cpu_us_per_msg": median(untraced(stream, round.cpuUsPerMsg)),
		"raw.setup_s":        median(setupRaw),
		"host.slowness":      median(slows),
		"host.ref_echo_us":   median(slows) * spec.ref.nominalNs / 1e3,
	}
	m.notes = map[string]any{
		"cold_starts":       len(cold),
		"throughput_rounds": len(untraced(stream, round.msgsPerSec)),
		"latency_rounds":    len(untraced(echo, round.msgsPerSec)),
		"latency_samples":   len(oneway),
		"msgs_per_round":    stream[0].msgs,
		"timed_seconds":     timedSeconds(stream, echo, pingpong),
		"port_collisions":   portCollisions,
	}
	for k, v := range raw {
		m.notes[k] = v
	}
	if !c.trace {
		return m, nil
	}

	// 5. Per-layer metrics and the span file.
	m.perLayer = livePerLayer(spec, r, tr, tk, stream, cold, oneway, raw["raw.msgs_per_s"])
	acct.setOnStall(nil)
	return m, finishTraced(c, acct, tr, raw, &m)
}

// timedSeconds is the wall time spent inside timed rounds.
func timedSeconds(stream, echo []round, pingpong bool) float64 {
	total := time.Duration(0)
	for _, rd := range echo {
		total += rd.wall
	}
	if !pingpong {
		for _, rd := range stream {
			total += rd.wall
		}
	}
	return total.Seconds()
}

// livePerLayer derives the live stack's per-layer metrics: counter ratios
// over all throughput rounds (tracing does not change a count), heap figures
// from the untraced rounds, and call-time figures from the traced rounds'
// spans.
func livePerLayer(spec *liveSpec, r *rig, tr *tracer, tk *roundTracks, stream []round, cold []lifecycle,
	oneway []float64, msgsPerSec float64) map[string]float64 {
	total := map[string]float64{}
	var msgs, untracedMsgs, mallocs, heapBytes float64
	var wall, cpu, tracedWall time.Duration
	var tracedRate, untracedRate []float64
	for _, rd := range stream {
		for k, v := range rd.counters {
			total[k] += v
		}
		msgs += float64(rd.msgs)
		wall += rd.wall
		cpu += rd.cpu
		if rd.traced {
			tracedWall += rd.wall
			tracedRate = append(tracedRate, rd.msgsPerSec())
		} else {
			untracedMsgs += float64(rd.msgs)
			mallocs += float64(rd.mallocs)
			heapBytes += float64(rd.bytes)
			untracedRate = append(untracedRate, rd.msgsPerSec())
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perK := func(name string) float64 { return ratio(1000*total[name], msgs) }

	// Call spans of the throughput rounds only. In ping-pong those are the
	// echo rounds, where both ends send and receive.
	callTracks, roundSpan := [2][]*track{tk.send, tk.recv}, spanStreamRound
	if spec.streamMsgs == 0 {
		callTracks, roundSpan = [2][]*track{{tk.client, tk.server}, {tk.client, tk.server}}, spanEchoRound
	}
	sends, recvs := durations(spanSend, callTracks[0]...), durations(spanRecv, callTracks[1]...)
	callers := float64(len(callTracks[0])) // goroutines that send, and as many that receive
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	sendsAsc, recvsAsc := sorted(sends), sorted(recvs)
	busyDen := float64(tracedWall.Nanoseconds()) * callers

	// live_ack_latency_ns as sender 1 saw it, over the rig's lifetime.
	ackP50 := 0.0
	for _, mt := range r.send[0].Telemetry().Snapshot() {
		if mt.Name == "live_ack_latency_ns" && mt.P50 != nil {
			ackP50 = *mt.P50 / 1e3
		}
	}
	var newNode, handshake, closing []float64
	for _, lc := range cold {
		newNode = append(newNode, float64(lc.newNode.Nanoseconds())/1e3)
		handshake = append(handshake, float64(lc.handshake.Nanoseconds())/1e3)
		closing = append(closing, float64(lc.close.Nanoseconds())/1e3)
	}
	return map[string]float64{
		"live.tx.send_call_us_p50":        percentile(sendsAsc, 50) / 1e3,
		"live.tx.send_call_us_p99":        percentile(sendsAsc, 99) / 1e3,
		"live.tx.send_busy_share":         ratio(sum(sends), busyDen),
		"live.tx.frames_per_msg":          ratio(total["live_frames_sent_total"]-total["live_acks_sent_total"], msgs),
		"live.tx.socket_writes_per_msg":   ratio(total["live_socket_writes_total"], msgs),
		"live.tx.retransmits_per_kmsg":    perK("live_retransmits_total"),
		"live.tx.rto_backoffs_per_kmsg":   perK("live_rto_backoffs_total"),
		"live.tx.pace_deferrals_per_kmsg": perK("live_pace_deferrals_total"),
		"live.tx.loss_injected_per_kmsg":  perK("live_loss_injected_total"),
		"live.rx.recv_wait_us_p50":        percentile(recvsAsc, 50) / 1e3,
		"live.rx.recv_wait_share":         ratio(sum(recvs), busyDen),
		"live.rx.frames_per_burst":        ratio(total["live_rx_burst_frames_total"], total["live_rx_bursts_total"]),
		"live.rx.poll_hit_share":          ratio(total["live_rx_polls_total"], total["live_rx_polls_total"]+total["live_rx_poll_empty_total"]),
		"live.rx.agg_frames_per_run":      ratio(total["live_rx_agg_frames_total"], total["live_rx_agg_runs_total"]),
		"live.rx.acks_per_msg":            ratio(total["live_acks_sent_total"], msgs),
		"live.ack_latency_us_p50":         ackP50,
		"live.rx.port_drops":              r.counters()["live_port_drops_total"],
		"live.heap.allocs_per_msg":        ratio(mallocs, untracedMsgs),
		"live.heap.bytes_per_msg":         ratio(heapBytes, untracedMsgs),
		"live.pool.allocs_per_kmsg":       perK("live_pool_allocs_total"),
		"live.lifecycle.newnode_us":       median(newNode),
		"live.lifecycle.handshake_us":     median(handshake),
		"live.lifecycle.close_us":         median(closing),
		"app.oneway_p90_us":               percentile(oneway, 90),
		"app.oneway_p99_us":               percentile(oneway, 99),
		"app.goodput_mbps":                msgsPerSec * float64(spec.size) * 8 / 1e6,
		"proc.cpu_busy_cores":             ratio(float64(cpu), float64(wall)),
		"trace.overhead_pct":              100 * ratio(median(untracedRate)-median(tracedRate), median(untracedRate)),
		"trace.round_self_share":          tr.selfShare(roundSpan),
	}
}
