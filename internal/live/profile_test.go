package live

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/perfreg"
	"repro/internal/trace"
)

// streamPair is wbPair with the port queue as deep as the stream about
// to cross it. Under SIGPROF the consumer falls behind the rxLoop, and
// deliver() drops an already acknowledged message at a full queue — the
// count-based Recv loops here then wait forever (3 hangs in 8 runs at
// the default depth of 64). The depth is a fence, the same one
// benchmark/ uses; the fix is back-pressure from the port queue into
// the ack (ROADMAP item 1), which is not attempted here.
func streamPair(t *testing.T, msgs int) (*Node, *Node) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PortDepth = msgs
	return wbPair(t, cfg)
}

// drain receives msgs messages from b's port, failing with a health
// dump — not hanging the package — when one never comes.
func drain(t *testing.T, a, b *Node, port uint16, msgs int) {
	t.Helper()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	for i := 0; i < msgs; i++ {
		recvBefore(t, deadline, a, b, port)
	}
}

// profiledStream pushes msgs messages of size bytes through a fresh
// node pair with perfreg armed and a CPU profile running, and returns
// the per-stage attribution of the capture.
func profiledStream(t *testing.T, msgs, size int) ([]perfreg.StageCPU, string) {
	t.Helper()
	a, b := streamPair(t, msgs)
	const port = 30
	payload := wbPattern(size)

	perfreg.Enable()
	t.Cleanup(perfreg.Disable) // don't poison the alloc guards in this package
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	defer pprof.StopCPUProfile() // a failed drain must not leave the profiler running
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := a.Send(1, port, payload); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	drain(t, a, b, port, msgs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()

	rows, unit, err := perfreg.Attribute(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("attributing capture: %v", err)
	}
	return rows, unit
}

// TestStageLabelCoverageUnderProfile is the acceptance criterion for
// the labelling tentpole: a CPU profile captured over live streaming
// traffic must attribute samples to every datapath stage the stream
// exercises — module-send and send-syscall on the TX side, module-rx on
// the RX side. If a refactor drops a pprof.Do wrapper, the stage
// disappears from the attribution and this test names it.
func TestStageLabelCoverageUnderProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("captures a real CPU profile; skipped in -short")
	}
	want := []string{trace.SpanModuleSend, trace.SpanSendSyscall, trace.SpanModuleRx}
	var missing []string
	// CPU sampling is statistical (100 Hz): a fast run can miss a thin
	// stage. Retry with more traffic before declaring a label lost.
	for attempt, msgs := 0, 3000; attempt < 3; attempt, msgs = attempt+1, msgs*2 {
		rows, _ := profiledStream(t, msgs, 32*1024)
		got := make(map[string]bool, len(rows))
		for _, r := range rows {
			got[r.Stage] = true
		}
		missing = missing[:0]
		for _, stage := range want {
			if !got[stage] {
				missing = append(missing, stage)
			}
		}
		if len(missing) == 0 {
			return
		}
	}
	t.Fatalf("stages %v never appeared in the CPU attribution after 3 captures; a pprof.Do wrapper was dropped from the datapath", missing)
}

// TestHealthCaptureUnderProfile exercises the introspection path while
// a CPU profile is active and the stage labels are armed: health
// snapshots are taken mid-stream from a separate goroutine, mimicking
// a /debug/clic scrape during a nightly profiling run. The capture
// must stay consistent (no panic, both nodes present, counters
// monotonic) — profiling must be observability-neutral.
func TestHealthCaptureUnderProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("captures a real CPU profile; skipped in -short")
	}
	const msgs = 1500
	a, b := streamPair(t, msgs)
	const port = 31
	payload := wbPattern(8 * 1024)

	perfreg.Enable()
	t.Cleanup(perfreg.Disable)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	defer pprof.StopCPUProfile()

	stop := make(chan struct{})
	scraped := make(chan []health.Doc, 1)
	go func() {
		var docs []health.Doc
		for {
			select {
			case <-stop:
				scraped <- docs
				return
			default:
				docs = append(docs, health.Capture("wall", time.Now().UnixNano(), a, b))
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := a.Send(1, port, payload); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	drain(t, a, b, port, msgs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	close(stop)
	docs := <-scraped
	if len(docs) == 0 {
		t.Fatal("no health docs captured during the profiled stream")
	}
	var lastSent int64
	for _, doc := range docs {
		if len(doc.Nodes) != 2 {
			t.Fatalf("health doc has %d nodes, want 2", len(doc.Nodes))
		}
		sent := doc.Nodes[0].Counters["tx_frames"]
		if sent < lastSent {
			t.Fatalf("tx_frames went backwards under profile: %d -> %d", lastSent, sent)
		}
		lastSent = sent
	}
}
