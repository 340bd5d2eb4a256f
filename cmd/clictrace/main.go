// Command clictrace prints the per-stage pipeline timing of CLIC packets
// (the Fig. 7 instrumentation) for an arbitrary size and configuration —
// the microscope next to clicbench's fixed 1400 B view.
//
// By default it traces one packet and prints the span tree the flight
// recorder kept for its frame. With -frames N it instead streams N
// messages and prints the per-stage latency breakdown (p50/p99/mean/max —
// the automated Fig. 7a/7b attribution), the slowest frames as span
// trees, and any receive-path stalls. In either mode -flight-out also
// writes the journal as a Chrome Trace JSON viewable in Perfetto.
//
// Usage:
//
//	clictrace [-size 1400] [-mtu 1500] [-rx bh|direct] [-path 1..4] [-coalesce-us 40] [-flight-out trace.json]
//	clictrace -frames 200 [-slowest 3] [-stall-us 100] [-flight-out trace.json] [...]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/clic"
	"repro/internal/flight"
	"repro/internal/model"
)

func main() {
	var (
		size       = flag.Int("size", 1400, "packet size in bytes (the paper uses 1400)")
		mtu        = flag.Int("mtu", 1500, "link MTU")
		rxMode     = flag.String("rx", "bh", "receive mode: bh (Fig. 8a) or direct (Fig. 8b)")
		path       = flag.Int("path", 2, "send path 1-4 (Fig. 1)")
		coalesceUs = flag.Int("coalesce-us", 40, "interrupt coalescing window, µs")
		frames     = flag.Int("frames", 0, "flight-recorder mode: stream this many messages and print the per-stage latency breakdown")
		slowest    = flag.Int("slowest", 3, "with -frames: show the N slowest frames as span trees")
		stallUs    = flag.Int("stall-us", 100, "with -frames: flag receive-path queueing spans longer than this, µs")
		flightOut  = flag.String("flight-out", "", "write the journal as Chrome Trace JSON to this file")
	)
	flag.Parse()

	params := model.Default()
	params.NIC.MTU = *mtu
	params.NIC.CoalesceUsecs = *coalesceUs

	rx, err := clic.ParseRxMode(*rxMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clictrace: %v\n", err)
		os.Exit(2)
	}
	opt := clic.Options{SendPath: clic.SendPath(*path), RxMode: rx}

	if *frames > 0 {
		flightMode(&params, opt, *size, *frames, *slowest, *stallUs, *flightOut)
		return
	}

	pl := bench.PipelineTrace(&params, opt, *size)
	fmt.Println(pl.Label)
	fmt.Print(pl.Table())
	writeFlight(pl.Journal, *flightOut)
}

// flightMode runs the always-on recorder over a message stream and prints
// the journal-derived latency attribution.
func flightMode(params *model.Params, opt clic.Options, size, frames, slowest, stallUs int, flightOut string) {
	j := bench.FlightRun(params, opt, size, frames)
	a := flight.Analyze(j.Snapshot())

	fmt.Printf("CLIC %d B x %d messages, %s receive — per-stage latency from the flight recorder\n",
		size, frames, opt.RxMode)
	fmt.Print(a.BreakdownTable())

	if slowest > 0 {
		fmt.Printf("\nslowest %d frames (end-to-end):\n", slowest)
		for _, fs := range a.SlowestFrames(slowest) {
			fmt.Print(fs.Tree())
		}
	}

	threshold := time.Duration(stallUs) * time.Microsecond
	if stalls := a.Stalls(int64(threshold)); len(stalls) > 0 {
		fmt.Printf("\nstalls (receive-path queueing > %d µs): %d\n", stallUs, len(stalls))
		for i, s := range stalls {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", len(stalls)-10)
				break
			}
			fmt.Printf("  frame %d  %-12s %8.2f µs on %s\n",
				s.Frame, s.Stage, float64(s.Dur())/1000, s.Node)
		}
	}

	writeFlight(j, flightOut)
}

// writeFlight exports the journal as Chrome Trace JSON when path is set.
func writeFlight(j *flight.Journal, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clictrace: %v\n", err)
		os.Exit(1)
	}
	if err := flight.WriteChromeTrace(f, j.Snapshot()); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clictrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s to %s (open in Perfetto: ui.perfetto.dev)\n", j.Summary(), path)
}
