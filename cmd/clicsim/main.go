// Command clicsim runs one-off cluster experiments from flags — the
// exploration tool next to clicbench's fixed figure set. It builds a
// cluster, streams messages from node 0 to node 1 over the chosen stack,
// and prints throughput, latency and subsystem counters.
//
// Examples:
//
//	clicsim -stack clic -mtu 9000 -size 1000000 -count 16
//	clicsim -stack tcp -size 65536 -count 64
//	clicsim -stack clic -rx direct -path 3 -coalesce-us 100
//	clicsim -stack gamma -size 0 -count 100 -pingpong
//	clicsim -stack clic -metrics prom
//	clicsim -stack clic -metrics json -metrics-every-us 500
//	clicsim -stack clic -loss 0.3 -health-out health.json -health-scan-us 1000
//	clicsim -stack clic -profile -debug-addr 127.0.0.1:9091 -linger 30s
//
// -debug-addr serves /metrics, /metrics.json, /debug/clic (503 until the
// run finishes) and /debug/pprof on a wall-clock HTTP mux next to the
// simulation; -profile arms the perfreg stage labels plus mutex/block
// contention profiling so those pprof endpoints have data; -linger keeps
// the process (and the mux) alive after the run for scraping.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/clic"
	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/pcap"
	"repro/internal/perfreg"
	"repro/internal/sim"
)

// mustSend aborts on a transport send error: the benchmark scenarios
// run with enough retry budget that a failure means a broken setup, and
// a dropped error would leave the peer blocked in Recv.
func mustSend(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	var (
		stack      = flag.String("stack", "clic", "protocol stack: clic, tcp, via, gamma")
		mtu        = flag.Int("mtu", 1500, "link MTU (1500 or 9000 for jumbo)")
		size       = flag.Int("size", 65536, "message size in bytes")
		count      = flag.Int("count", 16, "messages to transfer")
		nics       = flag.Int("nics", 1, "NICs per node (channel bonding)")
		rxMode     = flag.String("rx", "bh", "CLIC receive mode: bh (bottom halves) or direct")
		path       = flag.Int("path", 2, "CLIC send path 1-4 (Fig. 1)")
		coalesceUs = flag.Int("coalesce-us", 40, "NIC interrupt coalescing window, µs")
		pingpong   = flag.Bool("pingpong", false, "measure ping-pong latency instead of streaming")
		seed       = flag.Int64("seed", 1, "simulation seed")
		loss       = flag.Float64("loss", 0, "injected frame loss rate [0,1)")
		dup        = flag.Float64("dup", 0, "injected frame duplication rate [0,1)")
		reorder    = flag.Float64("reorder", 0, "injected frame reordering rate [0,1)")
		corrupt    = flag.Float64("corrupt", 0, "injected frame corruption (FCS-discard) rate [0,1)")
		maxRetries = flag.Int("max-retries", 0, "CLIC retransmissions before the channel fails (0 = unlimited)")
		pcapPath   = flag.String("pcap", "", "write the switch's traffic to this libpcap file")
		flightOut  = flag.String("flight-out", "", "record every frame's lifecycle and write the journal as Chrome Trace JSON")
		metrics    = flag.String("metrics", "", "dump final telemetry snapshot: prom or json")
		metricsOut = flag.String("metrics-out", "", "write metrics to this file instead of stdout")
		metricsUs  = flag.Int64("metrics-every-us", 0, "also dump a JSON snapshot every N simulated µs")
		healthOut  = flag.String("health-out", "", "write the final cluster health document (clicstat format) to this file")
		healthUs   = flag.Int64("health-scan-us", 0, "run the stall watchdog every N simulated µs (CLIC only)")
		logLevel   = flag.String("log-level", "info", "minimum log severity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /metrics.json, /debug/clic and /debug/pprof on this address")
		profileOn  = flag.Bool("profile", false, "arm pprof stage labels and mutex/block contention profiling")
		linger     = flag.Duration("linger", 0, "keep the process (and -debug-addr endpoints) up this long after the run")
	)
	flag.Parse()
	if *profileOn {
		// Same sampling knobs as cliclive -profile: every 100th
		// contention event, blocks >= 10 µs.
		perfreg.EnableRuntimeProfiles(100, 10_000)
	}

	logger, err := health.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	die := func(err error) {
		logger.Error("clicsim failed", slog.Any("err", err))
		os.Exit(1)
	}

	if *metrics != "" && *metrics != "prom" && *metrics != "json" {
		die(fmt.Errorf("unknown metrics format %q (want prom or json)", *metrics))
	}
	metricsW := io.Writer(os.Stdout)
	if *metricsOut != "" {
		file, err := os.Create(*metricsOut)
		if err != nil {
			die(err)
		}
		defer file.Close()
		metricsW = file
	}

	params := model.Default()
	params.NIC.MTU = *mtu
	params.NIC.CoalesceUsecs = *coalesceUs
	params.Link.LossRate = *loss
	params.Link.DupRate = *dup
	params.Link.ReorderRate = *reorder
	params.Link.CorruptRate = *corrupt
	params.CLIC.MaxRetries = *maxRetries

	var journal *flight.Journal
	if *flightOut != "" {
		journal = flight.New(flight.RunCapacity)
	}
	c := cluster.New(cluster.Config{Nodes: 2, NICsPerNode: *nics, Seed: *seed, Params: &params,
		Flight: journal})
	perfreg.RegisterMetrics(c.Tel)

	// /debug/clic serves the final health document. Unlike the live
	// stack's lock-narrow mid-run capture, the sim's snapshot is only
	// consistent at engine quiesce, so a scrape during the run gets 503.
	var finalDoc atomic.Pointer[health.Doc]
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			die(err)
		}
		mux := c.Tel.Mux()
		mux.HandleFunc("/debug/clic", func(w http.ResponseWriter, _ *http.Request) {
			doc := finalDoc.Load()
			if doc == nil {
				http.Error(w, "run in progress; the health document is captured at quiesce",
					http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(doc) //nolint:errcheck // client went away
		})
		// The default pprof handlers register on http.DefaultServeMux;
		// this server uses the registry's own mux, so mount explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("debug: http://%s/metrics (JSON at /metrics.json, health at /debug/clic, pprof at /debug/pprof/)\n", ln.Addr())
		go http.Serve(ln, mux) //nolint:errcheck // dies with the process
	}
	if journal != nil {
		journal.InstrumentStages(c.Tel)
		defer func() {
			file, err := os.Create(*flightOut)
			if err != nil {
				die(err)
			}
			defer file.Close()
			if err := flight.WriteChromeTrace(file, journal.Snapshot()); err != nil {
				die(err)
			}
			fmt.Printf("wrote %s to %s (open in ui.perfetto.dev)\n",
				journal.Summary(), *flightOut)
		}()
	}

	// The sim watchdog reads engine time and is driven by Scan calls
	// between stepped RunUntil slices — a self-rescheduling scan event
	// would keep the queue non-empty and Run would never return.
	var wd *health.Watchdog
	if *healthUs > 0 {
		wd = health.NewWatchdog(health.WatchdogConfig{},
			func() int64 { return int64(c.Eng.Now()) }, logger, c.Tel)
	}

	// driveMeasured drives the measurement phase. With -metrics-every-us
	// or -health-scan-us it steps the engine in fixed simulated-time
	// slices, dumping a JSON snapshot or scanning the watchdog at each
	// boundary.
	driveMeasured := func() {
		type tick struct {
			every sim.Time
			next  sim.Time
			fn    func()
		}
		var ticks []tick
		if *metricsUs > 0 {
			ticks = append(ticks, tick{every: sim.Time(*metricsUs) * sim.Microsecond, fn: func() {
				if err := c.Tel.WriteJSONAt(metricsW, float64(c.Eng.Now())/1000); err != nil {
					die(err)
				}
			}})
		}
		if wd != nil {
			ticks = append(ticks, tick{every: sim.Time(*healthUs) * sim.Microsecond, fn: func() { wd.Scan() }})
		}
		if len(ticks) == 0 {
			c.Run()
			return
		}
		for i := range ticks {
			ticks[i].next = c.Eng.Now() + ticks[i].every
		}
		for {
			limit := ticks[0].next
			for _, t := range ticks[1:] {
				if t.next < limit {
					limit = t.next
				}
			}
			c.Eng.RunUntil(limit)
			if c.Eng.Pending() == 0 {
				return
			}
			now := c.Eng.Now()
			for i := range ticks {
				if now >= ticks[i].next {
					ticks[i].fn()
					ticks[i].next += ticks[i].every
				}
			}
		}
	}
	// With -profile the whole drive runs under the sim-driver stage
	// label, so a CPU capture separates engine work from the serving
	// goroutines.
	runMeasured := func() {
		if perfreg.Enabled() {
			perfreg.Do(context.Background(), perfreg.StageDriver, driveMeasured)
			return
		}
		driveMeasured()
	}

	if *pcapPath != "" {
		file, err := os.Create(*pcapPath)
		if err != nil {
			die(err)
		}
		defer file.Close()
		capture, err := pcap.NewWriter(file)
		if err != nil {
			die(err)
		}
		pcap.Tap(c.Eng, c.Switch, capture)
		defer func() {
			fmt.Printf("wrote %d frames to %s\n", capture.Frames(), *pcapPath)
		}()
	}

	var send func(p *sim.Proc, data []byte)
	var recv func(p *sim.Proc, n int) []byte
	var sendBack func(p *sim.Proc, data []byte)
	var recvBack func(p *sim.Proc, n int) []byte

	switch *stack {
	case "clic":
		rx, err := clic.ParseRxMode(*rxMode)
		if err != nil {
			die(err)
		}
		opt := clic.Options{SendPath: clic.SendPath(*path), RxMode: rx}
		c.EnableCLIC(opt)
		if wd != nil {
			for _, n := range c.Nodes {
				wd.Watch(n.CLIC)
			}
		}
		send = func(p *sim.Proc, d []byte) { mustSend(c.Nodes[0].CLIC.Send(p, 1, 7, d)) }
		recv = func(p *sim.Proc, n int) []byte { _, d := c.Nodes[1].CLIC.Recv(p, 7); return d }
		sendBack = func(p *sim.Proc, d []byte) { mustSend(c.Nodes[1].CLIC.Send(p, 0, 7, d)) }
		recvBack = func(p *sim.Proc, n int) []byte { _, d := c.Nodes[0].CLIC.Recv(p, 7); return d }
	case "tcp":
		c.EnableTCP()
		l := c.Nodes[1].TCP.Listen(5001)
		c.Go("accept", func(p *sim.Proc) {
			conn := l.Accept(p)
			recv = func(p *sim.Proc, n int) []byte { d, _ := conn.ReadFull(p, n); return d }
			sendBack = func(p *sim.Proc, d []byte) { conn.Send(p, d) }
		})
		c.Go("dial", func(p *sim.Proc) {
			conn := c.Nodes[0].TCP.Dial(p, 1, 5001)
			send = func(p *sim.Proc, d []byte) { conn.Send(p, d) }
			recvBack = func(p *sim.Proc, n int) []byte { d, _ := conn.ReadFull(p, n); return d }
		})
		c.Run()
	case "via":
		c.EnableVIA()
		vi0 := c.Nodes[0].VIA.Open(1, 1)
		vi1 := c.Nodes[1].VIA.Open(0, 1)
		send = func(p *sim.Proc, d []byte) { vi0.Send(p, d) }
		recv = func(p *sim.Proc, n int) []byte { return vi1.Recv(p) }
		sendBack = func(p *sim.Proc, d []byte) { vi1.Send(p, d) }
		recvBack = func(p *sim.Proc, n int) []byte { return vi0.Recv(p) }
	case "gamma":
		c.EnableGAMMA()
		send = func(p *sim.Proc, d []byte) { c.Nodes[0].GAMMA.Send(p, 1, 7, d) }
		recv = func(p *sim.Proc, n int) []byte { return c.Nodes[1].GAMMA.Recv(p, 7) }
		sendBack = func(p *sim.Proc, d []byte) { c.Nodes[1].GAMMA.Send(p, 0, 7, d) }
		recvBack = func(p *sim.Proc, n int) []byte { return c.Nodes[0].GAMMA.Recv(p, 7) }
	default:
		die(fmt.Errorf("unknown stack %q", *stack))
	}

	payload := make([]byte, *size)
	if *pingpong {
		var rtt sim.Time
		c.Go("pinger", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < *count; i++ {
				send(p, payload)
				recvBack(p, *size)
			}
			rtt = (p.Now() - start) / sim.Time(*count)
		})
		c.Go("ponger", func(p *sim.Proc) {
			for i := 0; i < *count; i++ {
				recv(p, *size)
				sendBack(p, payload)
			}
		})
		runMeasured()
		fmt.Printf("%s %dB ping-pong: RTT %.1f µs, one-way %.1f µs\n",
			*stack, *size, float64(rtt)/1000, float64(rtt)/2000)
	} else {
		var start, end sim.Time
		c.Go("streamer", func(p *sim.Proc) {
			start = p.Now()
			for i := 0; i < *count; i++ {
				send(p, payload)
			}
		})
		c.Go("sink", func(p *sim.Proc) {
			for i := 0; i < *count; i++ {
				recv(p, *size)
			}
			end = p.Now()
		})
		runMeasured()
		bits := float64(*count) * float64(*size) * 8
		secs := float64(end-start) / 1e9
		fmt.Printf("%s: %d x %d B in %.3f ms = %.1f Mb/s\n",
			*stack, *count, *size, secs*1000, bits/secs/1e6)
	}

	if wd != nil {
		// One final scan so conditions present at quiesce are reported.
		for _, v := range wd.Scan() {
			fmt.Printf("watchdog: %s on %s peer %d: %s\n", v.Condition, v.Node, v.Peer, v.Detail)
		}
	}
	quiesced := c.HealthDoc()
	finalDoc.Store(&quiesced)
	if *healthOut != "" {
		doc := quiesced
		file, err := os.Create(*healthOut)
		if err != nil {
			die(err)
		}
		enc := json.NewEncoder(file)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			die(err)
		}
		if err := file.Close(); err != nil {
			die(err)
		}
		fmt.Printf("wrote health document (%d nodes, %d link dirs) to %s\n",
			len(doc.Nodes), len(doc.Links), *healthOut)
	}

	for i, n := range c.Nodes {
		fmt.Printf("node%d: %d syscalls, %d interrupts, %d bottom halves, %d wakeups, cpu busy %.2f ms\n",
			i, n.Kernel.Syscalls.Value(), n.Kernel.Interrupts.Value(),
			n.Kernel.BottomHalfs.Value(), n.Kernel.Wakeups.Value(),
			float64(n.Host.CPU.BusyTime())/1e6)
		for _, adapter := range n.NICs {
			fmt.Printf("  %s: tx %d rx %d frames, %d IRQs, %d ring drops, %d filtered\n",
				adapter.Name, adapter.TxFrames.Value(), adapter.RxFrames.Value(),
				adapter.IRQsFired.Value(), adapter.RxDrops.Value(), adapter.RxFiltered.Value())
		}
	}

	switch *metrics {
	case "prom":
		err = c.Tel.WritePrometheus(metricsW)
	case "json":
		err = c.Tel.WriteJSONAt(metricsW, float64(c.Eng.Now())/1000)
	}
	if err != nil {
		die(err)
	}

	if *debugAddr != "" && *linger > 0 {
		fmt.Printf("serving debug endpoints for another %v...\n", *linger)
		time.Sleep(*linger)
	}
}
