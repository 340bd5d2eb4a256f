package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/clic"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sim"
)

// simItem is one measurement of the sim_paper pass: a fresh two-node
// cluster, one protocol stack, one traffic shape. The list is the paper's
// evaluation in miniature: its latency headline, its two bandwidth claims
// (MTU 1500 and 9000) and the TCP/IP comparison, at fixed counts.
type simItem struct {
	name     string
	tcp      bool
	mtu      int
	size     int
	count    int
	pingpong bool
}

// pingpongWarmup round trips come before the timed ones, as in
// internal/bench.Latency: the first exchange carries one-off costs.
const pingpongWarmup = 3

var simItems = []simItem{
	{name: "clic_pingpong_0", mtu: 1500, size: 0, count: 500, pingpong: true},
	{name: "clic_stream_1400", mtu: 1500, size: 1400, count: 1250},
	{name: "clic_stream_64k", mtu: 1500, size: 64 << 10, count: 75},
	{name: "clic_stream_64k_mtu9000", mtu: 9000, size: 64 << 10, count: 75},
	// A 0-byte read on a byte stream returns at once, so the smallest TCP
	// message that makes a round trip carries one byte.
	{name: "tcp_pingpong_1", tcp: true, mtu: 1500, size: 1, count: 500, pingpong: true},
	{name: "tcp_stream_64k", tcp: true, mtu: 1500, size: 64 << 10, count: 75},
}

// The items whose figures the per-layer table quotes.
const (
	itemCLICPingPong = "clic_pingpong_0"
	itemCLICStream   = "clic_stream_64k"
)

// simCluster is fixed: every simulated-clock output must repeat bit for bit
// whatever -seed says. The seed only chooses payload bytes.
const simClusterSeed = 1

// simCounters are the cluster-registry counters kept per item, summed over
// both nodes and all links.
var simCounters = []string{
	"clic_frames_sent_total", "clic_acks_sent_total", "kernel_interrupts_total",
	"nic_rx_frames_total", "host_memcpy_bytes_total", "ether_frames_total",
}

//go:embed golden_sim.json
var goldenJSON []byte

// link is a message channel between node 0 and node 1 over either stack,
// the internal/bench Pair shape.
type link struct {
	c        *cluster.Cluster
	send     func(p *sim.Proc, data []byte) error
	recv     func(p *sim.Proc, size int) []byte
	sendBack func(p *sim.Proc, data []byte) error
	recvBack func(p *sim.Proc, size int) []byte
}

func newLink(it simItem) *link {
	params := model.Default()
	params.NIC.MTU = it.mtu
	c := cluster.New(cluster.Config{Nodes: 2, Seed: simClusterSeed, Params: &params})
	l := &link{c: c}
	if !it.tcp {
		c.EnableCLIC(clic.DefaultOptions())
		const port = 100
		a, b := c.Nodes[0].CLIC, c.Nodes[1].CLIC
		l.send = func(p *sim.Proc, data []byte) error { return a.Send(p, 1, port, data) }
		l.recv = func(p *sim.Proc, _ int) []byte { _, d := b.Recv(p, port); return d }
		l.sendBack = func(p *sim.Proc, data []byte) error { return b.Send(p, 0, port, data) }
		l.recvBack = func(p *sim.Proc, _ int) []byte { _, d := a.Recv(p, port); return d }
		return l
	}
	c.EnableTCP()
	const port = 5001
	listener := c.Nodes[1].TCP.Listen(port)
	c.Go("accept", func(p *sim.Proc) {
		conn := listener.Accept(p)
		l.recv = func(p *sim.Proc, size int) []byte { d, _ := conn.ReadFull(p, size); return d }
		l.sendBack = func(p *sim.Proc, data []byte) error { conn.Send(p, data); return nil }
	})
	c.Go("dial", func(p *sim.Proc) {
		conn := c.Nodes[0].TCP.Dial(p, 1, port)
		l.send = func(p *sim.Proc, data []byte) error { conn.Send(p, data); return nil }
		l.recvBack = func(p *sim.Proc, size int) []byte { d, _ := conn.ReadFull(p, size); return d }
	})
	c.Run() // the three-way handshake, before any measurement
	return l
}

// itemResult is what one item produced.
type itemResult struct {
	msgs    int              // messages delivered and verified
	simOut  map[string]int64 // simulated-clock outputs and counters: must repeat exactly
	wall    time.Duration
	hostRTT []int64 // host ns per simulated round trip (ping-pong items)
}

// stampSeq writes seq into a payload: eight bytes when there is room, the low
// byte for a one-byte message, nothing for an empty one.
func stampSeq(buf []byte, seq uint64) {
	switch {
	case len(buf) >= seqBytes:
		binary.LittleEndian.PutUint64(buf, seq)
	case len(buf) > 0:
		buf[0] = byte(seq)
	}
}

// checkSeq verifies length and sequence number of a simulated delivery.
func checkSeq(data []byte, size int, want uint64) error {
	if len(data) != size {
		return fmt.Errorf("message %d: got %d bytes, want %d", want, len(data), size)
	}
	switch {
	case size >= seqBytes:
		if got := binary.LittleEndian.Uint64(data); got != want {
			return fmt.Errorf("got message %d, want %d", got, want)
		}
	case size > 0:
		if data[0] != byte(want) {
			return fmt.Errorf("got message byte %d, want %d", data[0], byte(want))
		}
	}
	return nil
}

// simTracks are the tracks of a traced pass; nil fields record nothing.
type simTracks struct {
	main, near, far *track // the pass and its items; node 0's process; node 1's process
}

// runItem builds the item's cluster and runs its traffic to completion.
func runItem(it simItem, pattern []byte, acct *account, tk simTracks, parent spanID) (itemResult, error) {
	res := itemResult{simOut: map[string]int64{}}
	start := time.Now()
	l := newLink(it)
	payload := append([]byte(nil), pattern[:it.size]...)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", it.name, err)
		}
	}
	// deliver checks one received message and counts it.
	deliver := func(data []byte, want uint64) bool {
		if err := checkSeq(data, it.size, want); err != nil {
			fail(err)
			return false
		}
		res.msgs++
		acct.delivered.Add(1)
		return true
	}
	// call wraps one Send or Recv with a host-time span and returns its
	// simulated-clock duration.
	call := func(p *sim.Proc, k *track, name spanName, seq uint64, fn func()) sim.Time {
		s := k.begin(name, parent, int64(seq))
		t := p.Now()
		fn()
		d := p.Now() - t
		k.end(s)
		return d
	}

	var simStart, simEnd, sendNs, recvNs sim.Time
	if it.pingpong {
		total := pingpongWarmup + it.count
		acct.attempted.Add(int64(2 * total))
		res.hostRTT = make([]int64, 0, it.count)
		l.c.Go("pinger", func(p *sim.Proc) {
			echo := append([]byte(nil), payload...)
			for i := 0; i < total; i++ {
				if i == pingpongWarmup {
					simStart = p.Now()
				}
				host := time.Now()
				stampSeq(echo, uint64(i))
				var err error
				d := call(p, tk.near, spanSimSend, uint64(i), func() { err = l.send(p, echo) })
				if err != nil {
					fail(err)
					return
				}
				var back []byte
				r := call(p, tk.near, spanSimRecv, uint64(i), func() { back = l.recvBack(p, it.size) })
				if !deliver(back, uint64(i)) {
					return
				}
				if i >= pingpongWarmup {
					sendNs, recvNs = sendNs+d, recvNs+r
					res.hostRTT = append(res.hostRTT, int64(time.Since(host)))
				}
			}
			simEnd = p.Now()
		})
		l.c.Go("ponger", func(p *sim.Proc) {
			for i := 0; i < total; i++ {
				var got []byte
				call(p, tk.far, spanSimRecv, uint64(i), func() { got = l.recv(p, it.size) })
				if !deliver(got, uint64(i)) {
					return
				}
				var err error
				call(p, tk.far, spanSimSend, uint64(i), func() { err = l.sendBack(p, got) })
				if err != nil {
					fail(err)
					return
				}
			}
		})
	} else {
		acct.attempted.Add(int64(it.count))
		l.c.Go("streamer", func(p *sim.Proc) {
			for i := 0; i < it.count; i++ {
				stampSeq(payload, uint64(i))
				var err error
				call(p, tk.near, spanSimSend, uint64(i), func() { err = l.send(p, payload) })
				if err != nil {
					fail(err)
					return
				}
			}
		})
		l.c.Go("sink", func(p *sim.Proc) {
			for i := 0; i < it.count; i++ {
				var got []byte
				call(p, tk.far, spanSimRecv, uint64(i), func() { got = l.recv(p, it.size) })
				if !deliver(got, uint64(i)) {
					return
				}
				if i == 0 {
					simStart = p.Now() // the rate is taken between first and last delivery
				}
			}
			simEnd = p.Now()
		})
	}
	end := l.c.Run()
	res.wall = time.Since(start)

	want := it.count
	if it.pingpong {
		want = 2 * (pingpongWarmup + it.count)
	}
	if firstErr == nil && res.msgs != want {
		fail(fmt.Errorf("simulation ended with %d of %d messages delivered", res.msgs, want))
	}
	res.simOut["sim_ns"] = int64(simEnd - simStart)
	res.simOut["end_ns"] = int64(end)
	if it.name == itemCLICPingPong {
		res.simOut["send_call_ns"] = int64(sendNs)
		res.simOut["recv_call_ns"] = int64(recvNs)
	}
	totals := map[string]float64{}
	for _, m := range l.c.Tel.Snapshot() {
		if m.Value != nil {
			totals[m.Name] += *m.Value
		}
	}
	for _, name := range simCounters {
		res.simOut[name] = int64(totals[name])
	}
	return res, firstErr
}

// itemRun is one run of one item with what was read around it.
type itemRun struct {
	itemResult
	cpu  time.Duration
	slow float64 // host slowness around the item
}

// runPass runs the listed items in order, a sample of the host-speed
// reference (taken by between, which collects the item's garbage first) after
// each, and returns one record per item.
func runPass(items []simItem, pattern []byte, acct *account, tk simTracks, between func() (float64, error)) ([]itemRun, error) {
	runs := make([]itemRun, 0, len(items))
	ps := tk.main.begin(spanSimPass, 0, -1)
	var errs []error
	for _, it := range items {
		s := tk.main.begin(spanSimItem, tk.main.id(ps), -1)
		cpu0 := cpuTime()
		res, err := runItem(it, pattern, acct, tk, tk.main.id(s))
		run := itemRun{itemResult: res, cpu: cpuTime() - cpu0}
		tk.main.end(s)
		args := map[string]float64{}
		for k, v := range res.simOut {
			args[k] = float64(v)
		}
		tk.main.setArgs(s, args)
		if err == nil {
			run.slow, err = between()
		}
		if err != nil {
			errs = append(errs, err)
		}
		runs = append(runs, run)
	}
	tk.main.end(ps)
	return runs, errors.Join(errs...)
}

// simOutputs gathers a pass's simulated-clock outputs as "<item>.<output>".
func simOutputs(items []simItem, runs []itemRun) map[string]int64 {
	out := map[string]int64{}
	for i, run := range runs {
		for k, v := range run.simOut {
			out[items[i].name+"."+k] = v
		}
	}
	return out
}

// checkGolden compares a pass's simulated-clock outputs with the golden
// file, exactly. Every golden value is one operation.
func checkGolden(got map[string]int64, golden map[string]int64, acct *account) error {
	acct.attempted.Add(int64(len(golden)))
	var bad []string
	for k, want := range golden {
		if v, ok := got[k]; ok && v == want {
			acct.delivered.Add(1)
		} else {
			bad = append(bad, fmt.Sprintf("%s = %d, golden %d", k, v, want))
		}
	}
	for k := range got {
		if _, ok := golden[k]; !ok {
			acct.broken.Add(1)
			bad = append(bad, fmt.Sprintf("%s missing from golden_sim.json", k))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("simulated-clock outputs differ from golden_sim.json: %v", bad)
	}
	return nil
}

// writeGolden regenerates the golden file from this tree's simulator.
func writeGolden(path string) error {
	runs, err := runPass(simItems, make([]byte, 64<<10), &account{}, simTracks{}, func() (float64, error) { return 1, nil })
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(simOutputs(simItems, runs), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// coldPingPongs is the round trips of each ping-pong item in a cold start.
const coldPingPongs = 100

// runSim measures sim_paper. msgs_per_s and cpu_us_per_msg are host time per
// simulated message (the simulator's speed); oneway_p50_us is the host time
// the simulator needs for one one-way trip of the depth-1 CLIC ping-pong.
// Like every time here they are in units of the host-speed reference, which
// is sampled after every item. The simulated figures themselves are exact,
// checked against the golden file on every pass and reported per layer.
func runSim(c runConfig, acct *account) (measurement, error) {
	var m measurement
	var golden map[string]int64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return m, fmt.Errorf("golden_sim.json: %w", err)
	}
	pattern := make([]byte, 64<<10)
	rand.New(rand.NewSource(c.seed)).Read(pattern)
	// The simulator's host time goes into goroutine hand-offs between
	// simulated processes, which is what a 0-byte echo between two
	// goroutines spends its time on too.
	ref, err := newHostRef(zeroByteRef)
	if err != nil {
		return m, err
	}
	defer ref.close()

	// Cold starts: cluster construction, connection set-up and the first
	// coldPingPongs round trips of the two ping-pong items.
	var coldItems []simItem
	for _, it := range simItems {
		if it.pingpong {
			it.count = coldPingPongs
			coldItems = append(coldItems, it)
		}
	}
	var setup, setupRaw []float64
	for i := 0; i < scaled(nominalColdStarts, c.seconds, 3); i++ {
		runs, err := runPass(coldItems, pattern, acct, simTracks{}, ref.between)
		if err != nil {
			return m, fmt.Errorf("cold start %d: %w", i, err)
		}
		var norm, raw float64
		for _, run := range runs {
			norm += run.wall.Seconds() / run.slow
			raw += run.wall.Seconds()
		}
		setup, setupRaw = append(setup, norm), append(setupRaw, raw)
	}

	// The timed passes; the cold starts were the warm-up. In a traced run
	// every second pass records spans.
	var tr *tracer
	var tk simTracks
	if c.trace {
		tr = newTracer()
		calls := 0
		for _, it := range simItems {
			calls += 2 * (it.count + pingpongWarmup)
		}
		const passesHint = 4 // traced passes the tracks have room for before they grow
		tk = simTracks{
			main: tr.track("passes", passesHint*(1+len(simItems))),
			near: tr.track("node 0 process", passesHint*calls),
			far:  tr.track("node 1 process", passesHint*calls),
		}
	}
	// perItem[i] lists item i's untraced runs.
	perItem := make([][]itemRun, len(simItems))
	var tracedRate []float64
	var last []itemRun
	deadline := c.roundsDeadline()
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		passTk := simTracks{}
		traced := c.trace && i%2 == 1
		if traced {
			passTk = tk
		}
		runs, err := runPass(simItems, pattern, acct, passTk, ref.between)
		if err == nil {
			err = checkGolden(simOutputs(simItems, runs), golden, acct)
		}
		if err != nil {
			return m, fmt.Errorf("pass %d: %w", i, err)
		}
		last = runs
		if traced {
			msgs, wall := 0, time.Duration(0)
			for _, run := range runs {
				msgs, wall = msgs+run.msgs, wall+run.wall
			}
			tracedRate = append(tracedRate, float64(msgs)/wall.Seconds())
			continue
		}
		for j, run := range runs {
			perItem[j] = append(perItem[j], run)
		}
	}

	// A pass's time is the sum over its items of the item's median time
	// over the passes, each run in units of the reference beside it.
	over := func(runs []itemRun, f func(itemRun) float64) []float64 {
		out := make([]float64, len(runs))
		for i, run := range runs {
			out[i] = f(run)
		}
		return out
	}
	var msgs, wallNorm, cpuNorm, wallRaw, cpuRaw float64
	var oneway, onewayNorm, slows []float64
	for i, runs := range perItem {
		msgs += float64(runs[0].msgs)
		wallNorm += median(over(runs, func(r itemRun) float64 { return r.wall.Seconds() / r.slow }))
		cpuNorm += median(over(runs, func(r itemRun) float64 { return r.cpu.Seconds() / r.slow }))
		wallRaw += median(over(runs, func(r itemRun) float64 { return r.wall.Seconds() }))
		cpuRaw += median(over(runs, func(r itemRun) float64 { return r.cpu.Seconds() }))
		slows = append(slows, over(runs, func(r itemRun) float64 { return r.slow })...)
		if simItems[i].name != itemCLICPingPong {
			continue
		}
		for _, run := range runs {
			half := make([]float64, len(run.hostRTT))
			for j, v := range run.hostRTT {
				half[j] = float64(v) / 2e3 // host ns per round trip → µs per one-way trip
			}
			onewayNorm = append(onewayNorm, median(half)/run.slow)
			oneway = append(oneway, half...)
		}
	}
	oneway = sorted(oneway)
	m.endToEnd = map[string]float64{
		"msgs_per_s":     msgs / wallNorm,
		"oneway_p50_us":  median(onewayNorm),
		"cpu_us_per_msg": cpuNorm * 1e6 / msgs,
		"setup_s":        median(setup),
	}
	raw := map[string]float64{
		"raw.msgs_per_s":     msgs / wallRaw,
		"raw.oneway_p50_us":  percentile(oneway, 50),
		"raw.cpu_us_per_msg": cpuRaw * 1e6 / msgs,
		"raw.setup_s":        median(setupRaw),
		"host.slowness":      median(slows),
		"host.ref_echo_us":   median(slows) * zeroByteRef.nominalNs / 1e3,
	}
	m.notes = map[string]any{
		"cold_starts":     len(setup),
		"timed_passes":    len(perItem[0]),
		"latency_samples": len(oneway),
		"msgs_per_pass":   int(msgs),
		"timed_seconds":   wallRaw * float64(len(perItem[0])),
	}
	for k, v := range raw {
		m.notes[k] = v
	}
	if !c.trace {
		return m, nil
	}

	m.perLayer = simPerLayer(simOutputs(simItems, last))
	m.perLayer["app.oneway_p90_us"] = percentile(oneway, 90)
	m.perLayer["app.oneway_p99_us"] = percentile(oneway, 99)
	m.perLayer["proc.cpu_busy_cores"] = cpuRaw / wallRaw
	m.perLayer["trace.overhead_pct"] = 100 * (raw["raw.msgs_per_s"] - median(tracedRate)) / raw["raw.msgs_per_s"]
	m.perLayer["trace.round_self_share"] = tr.selfShare(spanSimItem)
	return m, finishTraced(c, acct, tr, raw, &m)
}

// simPerLayer turns a pass's exact outputs into the simulated-clock
// per-layer figures.
func simPerLayer(out map[string]int64) map[string]float64 {
	byName := map[string]simItem{}
	for _, it := range simItems {
		byName[it.name] = it
	}
	get := func(item, key string) float64 { return float64(out[item+"."+key]) }
	latencyUs := func(item string) float64 {
		return get(item, "sim_ns") / float64(2*byName[item].count) / 1e3
	}
	mbps := func(item string) float64 {
		it := byName[item]
		return float64(it.size) * float64(it.count-1) * 8 / (get(item, "sim_ns") / 1e9) / 1e6
	}
	stream := byName[itemCLICStream]
	perMsg := func(key string) float64 { return get(itemCLICStream, key) / float64(stream.count) }
	pingpongs := float64(byName[itemCLICPingPong].count)
	return map[string]float64{
		"clic.sim.lat0_us":                     latencyUs(itemCLICPingPong),
		"clic.sim.bw_1400_mbps":                mbps("clic_stream_1400"),
		"clic.sim.bw_64k_mbps":                 mbps(itemCLICStream),
		"clic.sim.bw_64k_mtu9000_mbps":         mbps("clic_stream_64k_mtu9000"),
		"clic.sim.frames_per_msg":              perMsg("clic_frames_sent_total"),
		"clic.sim.acks_per_msg":                perMsg("clic_acks_sent_total"),
		"clic.sim.send_call_us":                get(itemCLICPingPong, "send_call_ns") / pingpongs / 1e3,
		"clic.sim.recv_call_us":                get(itemCLICPingPong, "recv_call_ns") / pingpongs / 1e3,
		"tcpip.sim.lat0_us":                    latencyUs("tcp_pingpong_1"),
		"tcpip.sim.bw_64k_mbps":                mbps("tcp_stream_64k"),
		"kernel.sim.irqs_per_frame":            get(itemCLICStream, "kernel_interrupts_total") / get(itemCLICStream, "nic_rx_frames_total"),
		"hw.sim.memcpy_bytes_per_payload_byte": get(itemCLICStream, "host_memcpy_bytes_total") / float64(stream.count*stream.size),
		"ether.sim.frames_per_msg":             perMsg("ether_frames_total"),
	}
}
