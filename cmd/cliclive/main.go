// Command cliclive exercises the functional CLIC implementation over real
// UDP sockets on loopback: it transfers a payload between two in-process
// nodes under injected datagram loss and reports the protocol's work.
//
// Usage:
//
//	cliclive [-loss 0.2] [-size 1000000] [-count 20] [-mtu 1500]
//	    [-metrics-addr 127.0.0.1:9090] [-linger 30s] [-metrics prom|json]
//	    [-profile] [-log-level info] [-log-format text|json]
//
// -profile arms the perfreg stage labels plus the runtime mutex/block
// contention profilers; capture them live from /debug/pprof/mutex and
// /debug/pprof/block on the -metrics-addr mux, and slice CPU captures
// per datapath stage with `go tool pprof -tagfocus clic_stage=<stage>`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/live"
	"repro/internal/perfreg"
	"repro/internal/telemetry"
)

// die reports a fatal error through the same structured handler the
// watchdog's verdict lines use, then exits.
func die(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, slog.Any("err", err))
	os.Exit(1)
}

func main() {
	var (
		loss        = flag.Float64("loss", 0.2, "injected datagram loss rate [0,1)")
		dup         = flag.Float64("dup", 0, "injected datagram duplication rate [0,1)")
		reorder     = flag.Float64("reorder", 0, "injected datagram reordering rate [0,1)")
		maxRetries  = flag.Int("max-retries", 8, "retransmissions before a peer is declared dead (0 = unlimited)")
		size        = flag.Int("size", 100_000, "message size in bytes")
		count       = flag.Int("count", 20, "messages to transfer")
		mtu         = flag.Int("mtu", 1500, "datagram MTU")
		seed        = flag.Int64("seed", 1, "loss-injection seed")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars, /debug/clic, /debug/flight and /debug/pprof on this address")
		linger      = flag.Duration("linger", 0, "keep the metrics endpoint up this long after the transfer")
		metrics     = flag.String("metrics", "", "dump final telemetry snapshot to stdout: prom or json")
		flightOn    = flag.Bool("flight", false, "record per-datagram lifecycle spans (wall clock); served at /debug/flight as Chrome Trace JSON")
		logLevel    = flag.String("log-level", "info", "minimum log severity: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		profileOn   = flag.Bool("profile", false, "arm pprof stage labels and mutex/block contention profiling")
	)
	flag.Parse()
	logger, err := health.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if *metrics != "" && *metrics != "prom" && *metrics != "json" {
		die(logger, "unknown metrics format (want prom or json)", fmt.Errorf("got %q", *metrics))
	}

	reg := telemetry.NewRegistry()
	reg.PublishExpvar("clic")
	if *profileOn {
		// Sample every 100th contention event and blocks >= 10 µs: cheap
		// enough to leave on for a whole lossy transfer, dense enough
		// that lock contention in the datapath shows up.
		perfreg.EnableRuntimeProfiles(100, 10_000)
	}
	perfreg.RegisterMetrics(reg)
	var journal *flight.Journal
	if *flightOn {
		journal = flight.New(0)
		journal.InstrumentStages(reg)
	}

	cfg := live.DefaultConfig()
	cfg.MTU = *mtu
	cfg.LossRate = *loss
	cfg.DupRate = *dup
	cfg.ReorderRate = *reorder
	cfg.MaxRetries = *maxRetries
	cfg.Seed = *seed
	cfg.RetransmitTimeout = 10 * time.Millisecond
	cfg.Telemetry = reg
	cfg.Flight = journal

	a, err := live.NewNode(0, cfg)
	if err != nil {
		die(logger, "node 0 start failed", err)
	}
	defer a.Close()
	b, err := live.NewNode(1, cfg)
	if err != nil {
		die(logger, "node 1 start failed", err)
	}
	defer b.Close()
	live.Connect(a, b)

	// The stall watchdog scans both nodes' snapshots on the wall clock,
	// classifying window stalls, RTO storms, pool leaks and RX
	// starvation into clic_health_* metrics and watchdog_verdict lines.
	wd := health.NewWatchdog(health.WatchdogConfig{}, nil, logger, reg)
	wd.Watch(a, b)
	wdDone := make(chan struct{})
	defer close(wdDone)
	go wd.Run(wdDone)

	capture := func() health.Doc {
		return health.Capture("wall", time.Now().UnixNano(), a, b)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			die(logger, "metrics listener failed", err)
		}
		mux := reg.Mux()
		mux.Handle("/debug/clic", health.Handler(capture))
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
			if journal == nil {
				http.Error(w, "flight recorder disabled; run with -flight", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			flight.WriteChromeTrace(w, journal.Snapshot()) //nolint:errcheck // client went away
		})
		// The default pprof handlers register on http.DefaultServeMux; this
		// server uses its own mux, so mount them explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("metrics: http://%s/metrics (JSON at /metrics.json, health at /debug/clic, expvar at /debug/vars, flight at /debug/flight, pprof at /debug/pprof/)\n", ln.Addr())
		go http.Serve(ln, mux) //nolint:errcheck // dies with the process
	}

	payload := make([]byte, *size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	start := time.Now()
	go func() {
		for i := 0; i < *count; i++ {
			if err := a.Send(1, 1, payload); err != nil {
				logger.Error("send failed", slog.Int("msg", i), slog.Any("err", err))
				return
			}
		}
	}()
	bad := 0
	for i := 0; i < *count; i++ {
		msg, err := b.Recv(1)
		if err != nil {
			die(logger, "recv failed", err)
		}
		if !bytes.Equal(msg.Data, payload) {
			bad++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("transferred %d x %d B over lossy loopback UDP in %v\n", *count, *size, elapsed.Round(time.Millisecond))
	fmt.Printf("corrupted messages: %d (must be 0)\n", bad)
	txc, rxc := a.HealthSnapshot().Counters, b.HealthSnapshot().Counters
	sent, drops := txc[health.CounterTxFrames], txc["loss_injected"]
	fmt.Printf("sender: %d datagrams sent, %d dropped by injection (%.0f%%), %d retransmitted (%d NACK repairs, %d RTO expiries, %d of them ack probes)\n",
		sent, drops, 100*float64(drops)/float64(sent+drops), txc["retransmits"], txc["fast_retransmits"],
		txc["rto_backoffs"]+txc["ack_probes"], txc["ack_probes"])
	fmt.Printf("receiver: %d datagrams received, %d acknowledgements returned (%d as NACKs)\n", rxc["rx_frames"], rxc["acks_sent"], rxc["nacks_sent"])
	if bad != 0 {
		die(logger, "integrity failure", fmt.Errorf("%d corrupted messages", bad))
	}
	fmt.Println("NACK and RTO repair recovered every loss; delivery was exact and in order.")

	if *metricsAddr != "" && *linger > 0 {
		fmt.Printf("serving metrics for another %v...\n", *linger)
		time.Sleep(*linger)
	}
	switch *metrics {
	case "prom":
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			die(logger, "prometheus dump failed", err)
		}
	case "json":
		if err := reg.WriteJSON(os.Stdout); err != nil {
			die(logger, "json dump failed", err)
		}
	}
}
