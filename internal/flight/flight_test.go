package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestNilJournalIsDisabledRecorder(t *testing.T) {
	var j *Journal
	j.Begin("node0", 1, trace.SpanISR, 10)
	j.End("node0", 1, trace.SpanISR, 20)
	j.Span("node0", 1, trace.SpanModuleRx, 20, 30)
	j.Point("node0", 1, trace.PointDrop, 30, 0)
	j.Resource("cpu", 0, 10)
	j.InstrumentStages(telemetry.NewRegistry())
	if id := j.NewFrameID(); id != 0 {
		t.Fatalf("nil journal NewFrameID = %d, want 0", id)
	}
	if j.Snapshot() != nil || j.Len() != 0 || j.Total() != 0 {
		t.Fatal("nil journal must be empty")
	}
}

func TestFrameIDs(t *testing.T) {
	j := New(16)
	if a, b := j.NewFrameID(), j.NewFrameID(); a != 1 || b != 2 {
		t.Fatalf("NewFrameID = %d, %d; want 1, 2", a, b)
	}
	if FrameID(0, 7) == FrameID(1, 7) {
		t.Fatal("FrameID must separate nodes")
	}
	if FrameID(0, 7) == 0 {
		t.Fatal("FrameID must never be 0 (0 means no frame)")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	j := New(8)
	for i := 0; i < 20; i++ {
		j.Point("node0", uint64(i), trace.PointRetransmit, int64(i), 0)
	}
	if j.Len() != 8 {
		t.Fatalf("Len = %d, want 8", j.Len())
	}
	if j.Total() != 20 {
		t.Fatalf("Total = %d, want 20", j.Total())
	}
	snap := j.Snapshot()
	for i, ev := range snap {
		if want := int64(12 + i); ev.At != want {
			t.Fatalf("snapshot[%d].At = %d, want %d (oldest-first order)", i, ev.At, want)
		}
	}
}

func TestRingGrowsOnDemand(t *testing.T) {
	j := New(1 << 20)
	for i := 0; i < 3; i++ {
		j.Point("node0", uint64(i), trace.PointRetransmit, int64(i), 0)
	}
	if j.Len() != 3 || j.Total() != 3 {
		t.Fatalf("Len = %d, Total = %d; want 3, 3", j.Len(), j.Total())
	}
	if c := cap(j.ring); c >= 1<<20 {
		t.Fatalf("ring preallocated %d slots for 3 events", c)
	}
}

func TestSpanStitching(t *testing.T) {
	j := New(0)
	fid := j.NewFrameID()
	j.Span("node0", fid, trace.SpanModuleSend, 100, 800)
	j.Begin("link-0", fid, trace.SpanWire, 1000)
	j.Begin("link-1", fid, trace.SpanWire, 5000) // second hop: ignored
	j.End("node1", fid, trace.SpanWire, 12000)
	j.Begin("node1", fid, trace.SpanBHQueue, 13000)
	j.End("node1", fid, trace.SpanBHQueue, 15000)
	j.End("node1", fid, trace.SpanCopyToUser, 99999) // End without Begin
	j.Point("node1", fid, trace.PointNackSent, 16000, 3)

	a := Analyze(j.Snapshot())
	if len(a.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(a.Spans), a.Spans)
	}
	var wire *Span
	for i := range a.Spans {
		if a.Spans[i].Stage == trace.SpanWire {
			wire = &a.Spans[i]
		}
	}
	if wire == nil {
		t.Fatal("wire span not stitched")
	}
	if wire.Begin != 1000 || wire.End != 12000 {
		t.Fatalf("wire span = [%d, %d], want [1000, 12000] (begin-once across hops)",
			wire.Begin, wire.End)
	}
	if wire.Node != "link-0" || wire.EndNode != "node1" {
		t.Fatalf("wire span nodes = %q → %q, want link-0 → node1", wire.Node, wire.EndNode)
	}
	if len(a.Points) != 1 || a.Points[0].Name != trace.PointNackSent || a.Points[0].Arg != 3 {
		t.Fatalf("points = %+v", a.Points)
	}
}

func TestStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(0)
	j.InstrumentStages(reg)
	fid := j.NewFrameID()
	j.Span("node0", fid, trace.SpanISR, 0, 5000)
	j.Begin("node0", fid, trace.SpanBHQueue, 5000)
	j.End("node0", fid, trace.SpanBHQueue, 9000)

	h := reg.Histogram("clic_stage_latency_ns", "", telemetry.DefLatencyBuckets(),
		telemetry.L("stage", trace.SpanISR))
	if h.N() != 1 || h.Sum() != 5000 {
		t.Fatalf("isr histogram N=%d Sum=%g, want 1/5000", h.N(), h.Sum())
	}
	h = reg.Histogram("clic_stage_latency_ns", "", telemetry.DefLatencyBuckets(),
		telemetry.L("stage", trace.SpanBHQueue))
	if h.N() != 1 || h.Sum() != 4000 {
		t.Fatalf("bh-queue histogram N=%d Sum=%g, want 1/4000", h.N(), h.Sum())
	}
}

func TestBreakdownAndSlowest(t *testing.T) {
	j := New(0)
	for i := 0; i < 10; i++ {
		fid := j.NewFrameID()
		base := int64(i) * 100000
		j.Span("node0", fid, trace.SpanModuleSend, base, base+700)
		j.Span("node1", fid, trace.SpanISR, base+20000, base+20000+int64(i+1)*1000)
	}
	a := Analyze(j.Snapshot())
	bd := a.Breakdown()
	if len(bd) != 2 {
		t.Fatalf("breakdown has %d stages, want 2", len(bd))
	}
	// Canonical order: module-send before isr.
	if bd[0].Stage != trace.SpanModuleSend || bd[1].Stage != trace.SpanISR {
		t.Fatalf("breakdown order = %q, %q", bd[0].Stage, bd[1].Stage)
	}
	if bd[0].Count != 10 || bd[0].Max != 700 {
		t.Fatalf("module-send stat = %+v", bd[0])
	}
	if bd[1].P99 < bd[1].P50 {
		t.Fatalf("isr p99 %g < p50 %g", bd[1].P99, bd[1].P50)
	}
	table := a.BreakdownTable()
	if !strings.Contains(table, trace.SpanModuleSend) || !strings.Contains(table, "p99") {
		t.Fatalf("table missing content:\n%s", table)
	}

	slow := a.SlowestFrames(3)
	if len(slow) != 3 {
		t.Fatalf("got %d slowest frames, want 3", len(slow))
	}
	// Frame 10 has the longest isr span, hence the largest end-to-end.
	if slow[0].Frame != 10 {
		t.Fatalf("slowest frame = %d, want 10", slow[0].Frame)
	}
	if slow[0].Total <= slow[1].Total {
		t.Fatal("slowest frames not sorted descending")
	}
	tree := slow[0].Tree()
	if !strings.Contains(tree, trace.SpanISR) || !strings.Contains(tree, "node1") {
		t.Fatalf("tree missing span rows:\n%s", tree)
	}
}

func TestStallDetection(t *testing.T) {
	j := New(0)
	fast, slowF := j.NewFrameID(), j.NewFrameID()
	j.Begin("node1", fast, trace.SpanBHQueue, 0)
	j.End("node1", fast, trace.SpanBHQueue, 2000)
	j.Begin("node1", slowF, trace.SpanBHQueue, 0)
	j.End("node1", slowF, trace.SpanBHQueue, 250000)
	a := Analyze(j.Snapshot())
	stalls := a.Stalls(100000)
	if len(stalls) != 1 || stalls[0].Frame != slowF {
		t.Fatalf("stalls = %+v, want one for frame %d", stalls, slowF)
	}
}

func TestChromeTraceExport(t *testing.T) {
	j := New(0)
	fid := j.NewFrameID()
	j.Span("node0", fid, trace.SpanTxDMA, 100, 1200)
	j.Begin("link-n0-0", fid, trace.SpanWire, 1200)
	j.End("node1", fid, trace.SpanWire, 14000)
	j.Span("node1", fid, trace.SpanISR, 15000, 20000)
	j.Point("node0", 0, trace.PointRTOBackoff, 30000, 2)
	j.Begin("node0", 2, trace.SpanWire, 31000) // dropped frame: never ends
	j.Resource("node0:cpu", 100, 2000)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	var flowPIDs []float64
	for _, ev := range evs {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "s" || ph == "f" {
			flowPIDs = append(flowPIDs, ev["pid"].(float64))
		}
	}
	if phases["X"] < 4 { // 3 frame spans + 1 resource span
		t.Fatalf("want ≥4 X slices, got %d (phases %v)", phases["X"], phases)
	}
	if phases["s"] == 0 || phases["f"] == 0 || phases["s"] != phases["f"] {
		t.Fatalf("flow events unbalanced: %v", phases)
	}
	if phases["M"] == 0 {
		t.Fatal("missing process/thread name metadata")
	}
	if phases["i"] < 2 { // the point + the unfinished wire span
		t.Fatalf("want ≥2 instants, got %d", phases["i"])
	}
	// At least one flow pair must cross processes (cross-node causality).
	cross := false
	for i := 0; i+1 < len(flowPIDs); i += 2 {
		if flowPIDs[i] != flowPIDs[i+1] {
			cross = true
		}
	}
	if !cross {
		t.Fatal("no cross-process flow arrow found")
	}
}

// TestChromeTraceDeterministic exports one snapshot several times: the
// bytes must not vary, and every pid an event uses must carry a
// process_name (the resource process included).
func TestChromeTraceDeterministic(t *testing.T) {
	j := New(0)
	for n, node := range []string{"node0", "node1", "node2", "node3", "node4"} {
		fid := j.NewFrameID()
		j.Span(node, fid, trace.SpanISR, 100, 200)
		j.Begin(node, fid, trace.SpanWire, 300) // unfinished, all at one time
		j.Resource(node+":cpu", int64(n), int64(n)+50)
	}
	snap := j.Snapshot()
	export := func() []byte {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(first, export()) {
			t.Fatal("two exports of one snapshot differ")
		}
	}
	var evs []map[string]any
	if err := json.Unmarshal(first, &evs); err != nil {
		t.Fatal(err)
	}
	named := map[float64]bool{}
	used := map[float64]bool{}
	for _, ev := range evs {
		pid := ev["pid"].(float64)
		used[pid] = true
		if ev["name"] == "process_name" {
			named[pid] = true
		}
	}
	if len(used) != 6 { // five nodes and the resource process
		t.Fatalf("%d pids used, want 6", len(used))
	}
	for pid := range used {
		if !named[pid] {
			t.Errorf("pid %v has no process_name", pid)
		}
	}
}

// TestConcurrentRecording exercises the journal from many goroutines at
// once; run with -race (make check does) to prove the ring is race-clean
// with recording enabled.
func TestConcurrentRecording(t *testing.T) {
	j := New(1024)
	j.InstrumentStages(telemetry.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := "node0"
			if g%2 == 1 {
				node = "node1"
			}
			for i := 0; i < 500; i++ {
				fid := j.NewFrameID()
				at := int64(i) * 10
				j.Begin(node, fid, trace.SpanWire, at)
				j.End(node, fid, trace.SpanWire, at+5)
				j.Span(node, fid, trace.SpanModuleRx, at+5, at+7)
				j.Point(node, fid, trace.PointRetransmit, at+8, int64(i))
				_ = j.Len()
			}
		}(g)
	}
	wg.Wait()
	if j.Total() != 8*500*5 {
		t.Fatalf("Total = %d, want %d", j.Total(), 8*500*5)
	}
	// The snapshot must still stitch without panicking.
	_ = Analyze(j.Snapshot())
}
