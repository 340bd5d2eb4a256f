package bench

import (
	"fmt"

	"repro/internal/clic"
	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Pipeline is the Fig. 7 measurement of one packet: the application's
// view of the traced send and its receive, plus the flight-recorder spans
// of the frame that carried it through both nodes' stacks.
type Pipeline struct {
	Label string

	// SendCall, SendReturn and RecvReturn are the simulated times (ns)
	// at which the traced Send was called and returned and the matching
	// Recv returned.
	SendCall, SendReturn, RecvReturn int64

	// Frame holds the traced frame's spans, in begin order.
	Frame flight.FrameSummary

	// Journal is the whole run's recording (warm-up included), for export.
	Journal *flight.Journal
}

// OneWay is the end-to-end time of the traced packet: send call to the
// receiver's return from Recv.
func (pl *Pipeline) OneWay() int64 { return pl.RecvReturn - pl.SendCall }

// Span returns the traced frame's first span of a stage.
func (pl *Pipeline) Span(stage string) (flight.Span, bool) {
	for _, s := range pl.Frame.Spans {
		if s.Stage == stage {
			return s, true
		}
	}
	return flight.Span{}, false
}

// DriverStage is the receiver's driver stage (Fig. 7's ≈15 µs row that
// the direct call cuts to ≈5 µs): from the end of the receive DMA to the
// end of the ISR.
func (pl *Pipeline) DriverStage() (int64, bool) {
	rx, okRx := pl.Span(trace.SpanRxDMA)
	isr, ok := pl.Span(trace.SpanISR)
	return isr.End - rx.End, okRx && ok
}

// PostISR is the receiver's time from the end of the ISR to the end of
// the copy into user memory: the bottom-half dispatch (when the mode has
// one), CLIC_MODULE and the copy.
func (pl *Pipeline) PostISR() (int64, bool) {
	isr, okISR := pl.Span(trace.SpanISR)
	cp, ok := pl.Span(trace.SpanCopyToUser)
	return cp.End - isr.End, okISR && ok
}

// Table renders the traced frame's span tree followed by the
// application's view: when the send call returned and when the receive
// returned, relative to the send call.
func (pl *Pipeline) Table() string {
	return fmt.Sprintf("%ssend returned after %.2f µs; recv returned after %.2f µs (one-way)\n",
		pl.Frame.Tree(),
		float64(pl.SendReturn-pl.SendCall)/1000, float64(pl.OneWay())/1000)
}

// flightCluster builds the two-node CLIC cluster both pipeline harnesses
// run on, with a flight recorder attached whose stage histograms feed the
// cluster's telemetry registry.
func flightCluster(params *model.Params, opt clic.Options) (*cluster.Cluster, *flight.Journal) {
	j := flight.New(flight.RunCapacity)
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 1, Params: params, Flight: j})
	j.InstrumentStages(c.Tel)
	c.EnableCLIC(opt)
	return c, j
}

// PipelineTrace reproduces the Fig. 7 measurement: it times one packet of
// the given size flowing through the full CLIC pipeline and returns its
// per-stage spans. The paper uses 1400 bytes; RxMode selects between the
// Fig. 7a (bottom halves) and Fig. 7b (direct call) variants.
func PipelineTrace(params *model.Params, opt clic.Options, size int) *Pipeline {
	c, j := flightCluster(params, opt)
	const port = 40
	mode := "bottom-half"
	if opt.RxMode == clic.RxDirectCall {
		mode = "direct-call"
	}
	pl := &Pipeline{
		Label:   fmt.Sprintf("CLIC %d B, %s receive", size, mode),
		Journal: j,
	}
	payload := make([]byte, size)
	c.Go("sender", func(p *sim.Proc) {
		// Warm up ports and channels, then trace the second packet.
		mustSend(c.Nodes[0].CLIC.Send(p, 1, port, payload))
		p.Sleep(sim.Millisecond)
		pl.SendCall = int64(p.Now())
		mustSend(c.Nodes[0].CLIC.Send(p, 1, port, payload))
		pl.SendReturn = int64(p.Now())
	})
	c.Go("receiver", func(p *sim.Proc) {
		c.Nodes[1].CLIC.Recv(p, port)
		c.Nodes[1].CLIC.Recv(p, port)
		pl.RecvReturn = int64(p.Now())
	})
	c.Run()

	// The traced frame is the first one node 0's CLIC_MODULE sent after
	// the traced send call.
	a := flight.Analyze(j.Snapshot())
	sender := c.Nodes[0].Host.Name
	for _, s := range a.Spans {
		if s.Stage == trace.SpanModuleSend && s.Node == sender && s.Begin >= pl.SendCall {
			pl.Frame, _ = a.Frame(s.Frame)
			return pl
		}
	}
	panic("bench: the flight journal holds no frame for the traced send")
}

// FlightRun streams a number of messages of the given size through a
// two-node cluster with the flight recorder attached and returns the
// journal. Where PipelineTrace times one hand-picked packet, FlightRun
// captures every frame's lifecycle, so the caller can compute per-stage
// latency distributions (the automated Fig. 7 attribution) or export a
// Chrome trace. The journal's stage histograms are registered in the
// cluster's telemetry registry.
func FlightRun(params *model.Params, opt clic.Options, size, messages int) *flight.Journal {
	c, j := flightCluster(params, opt)
	const port = 40
	payload := make([]byte, size)
	c.Go("sender", func(p *sim.Proc) {
		for i := 0; i < messages; i++ {
			mustSend(c.Nodes[0].CLIC.Send(p, 1, port, payload))
		}
	})
	c.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < messages; i++ {
			c.Nodes[1].CLIC.Recv(p, port)
		}
	})
	c.Run()
	return j
}
