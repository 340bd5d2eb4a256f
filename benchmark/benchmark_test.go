package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests cover the benchmark's own arithmetic and bookkeeping. They run
// no workload.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
	asc := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 25: 20, 50: 30, 90: 46, 99: 49.6, 100: 50, -5: 10, 120: 50} {
		if got := percentile(asc, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // clamped ranks extrapolate, as Python's do
		{[]float64{2, 4, 4, 5, 7, 9, 12}, 4, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := quartileSpread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("quartileSpread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 130}}, 80},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"child inside another", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []interval{{50, 120}, {180, 300}}, 60},
		{"child outside the parent", []interval{{10, 20}, {300, 400}}, 100},
		{"children cover everything", []interval{{100, 150}, {150, 200}}, 0},
		{"unsorted input", []interval{{180, 190}, {110, 120}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	var none *track
	s := none.begin(spanSend, 0, 1) // a nil track records nothing and must not crash
	none.end(s)
	none.setArgs(s, nil)
	if none.id(s) != 0 {
		t.Error("nil track gave a span id")
	}
	if (*tracer)(nil).track("x", 1) != nil {
		t.Error("nil tracer gave a track")
	}

	tr := newTracer()
	main, worker := tr.track("main", 4), tr.track("worker", 4)
	r := main.begin(spanStreamRound, 0, -1)
	a := worker.begin(spanSend, main.id(r), 7)
	worker.end(a)
	b := worker.begin(spanSend, main.id(r), 8)
	worker.end(b)
	main.end(r)
	// Fix the clock readings so the arithmetic is checkable.
	main.spans[r].start, main.spans[r].end = 1000, 2000
	worker.spans[a].start, worker.spans[a].end = 1100, 1300
	worker.spans[b].start, worker.spans[b].end = 1250, 1500
	main.setArgs(r, map[string]float64{"live_frames_sent_total": 90})

	if got := durations(spanSend, worker); len(got) != 2 || got[0] != 200 || got[1] != 250 {
		t.Errorf("durations = %v, want [200 250]", got)
	}
	if got := tr.selfTimes(spanStreamRound); len(got) != 1 || got[0] != 600 {
		t.Errorf("selfTimes = %v, want [600]: 1000 minus the union 1100..1500", got)
	}
	if got := tr.selfShare(spanStreamRound); !near(got, 0.6) {
		t.Errorf("selfShare = %v, want 0.6", got)
	}
	if got := tr.selfShare(spanSimItem); got != 0 {
		t.Errorf("selfShare of a span that never ran = %v, want 0", got)
	}
	if main.id(r) == worker.id(a) {
		t.Error("span ids collide across tracks")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	var spans, withParent int
	for _, ev := range events {
		if ev["ph"] != "X" {
			continue
		}
		spans++
		args := ev["args"].(map[string]any)
		if args["parent"].(float64) == float64(main.id(r)) {
			withParent++
		}
		if ev["name"] == spanNames[spanStreamRound] && args["live_frames_sent_total"] != 90.0 {
			t.Errorf("round span lost its counter delta: %v", args)
		}
	}
	if spans != 3 || withParent != 2 {
		t.Errorf("span file has %d spans, %d children of the round; want 3 and 2", spans, withParent)
	}
}

// The reference echo must bring every datagram back and stop its server
// goroutine on close; a reading is the echo time over the nominal time.
func TestHostRefSample(t *testing.T) {
	h, err := newHostRef(refShape{frags: 3, fragBytes: 700, echoes: 20, nominalNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := h.sample()
	if err != nil {
		t.Fatal(err)
	}
	if slow <= 0 || math.IsInf(slow, 0) || math.IsNaN(slow) {
		t.Errorf("slowness %v from a 20-echo sample", slow)
	}
	h.close() // returns only once the server goroutine has ended
	if _, err := h.sample(); err == nil {
		t.Error("sample on a closed reference succeeded")
	}
}

func TestRoundsDeadline(t *testing.T) {
	c := runConfig{seconds: 30, started: time.Unix(1000, 0)}
	if got := c.roundsDeadline(); !got.Equal(c.started.Add(30*time.Second - closingReserve)) {
		t.Errorf("untraced deadline %v", got.Sub(c.started))
	}
	c.trace = true
	if got := c.roundsDeadline(); !got.Equal(c.started.Add(30*time.Second - tracedReserve)) {
		t.Errorf("traced deadline %v", got.Sub(c.started))
	}
}

func TestScaled(t *testing.T) {
	for _, c := range []struct{ nominal, seconds, floor, want int }{
		{45, 30, 3, 45}, {45, 10, 3, 15}, {45, 60, 3, 90}, {45, 1, 3, 3}, {15, 3, 3, 3}, {8, 10, 2, 3},
	} {
		if got := scaled(c.nominal, c.seconds, c.floor); got != c.want {
			t.Errorf("scaled(%d, %d, %d) = %d, want %d", c.nominal, c.seconds, c.floor, got, c.want)
		}
	}
}

func TestSequenceStamps(t *testing.T) {
	for _, size := range []int{0, 1, 8, 1400} {
		buf := make([]byte, size)
		stampSeq(buf, 259)
		if err := checkSeq(buf, size, 259); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
		if size > 0 && checkSeq(buf, size, 260) == nil {
			t.Errorf("size %d: wrong sequence number accepted", size)
		}
		if checkSeq(buf, size+1, 259) == nil {
			t.Errorf("size %d: wrong length accepted", size)
		}
	}

	r := &rig{spec: &liveSpec{size: 16}, pattern: []byte("0123456789abcdef")}
	f := flow{buf: append([]byte(nil), r.pattern...)}
	if seq := f.stamp(); seq != 0 || f.nextSend != 1 {
		t.Fatalf("first stamp = %d, next %d", seq, f.nextSend)
	}
	if err := r.check(f.buf, 0, true); err != nil {
		t.Errorf("intact message rejected: %v", err)
	}
	if r.check(f.buf, 1, false) == nil {
		t.Error("out-of-order message accepted")
	}
	if r.check(f.buf[:15], 0, false) == nil {
		t.Error("short message accepted")
	}
	f.buf[12] ^= 0xff
	if r.check(f.buf, 0, true) == nil {
		t.Error("corrupted payload accepted by the full check")
	}
	if err := r.check(f.buf, 0, false); err != nil {
		t.Errorf("the quick check looks only at length and sequence: %v", err)
	}
}

func TestAccountFailures(t *testing.T) {
	var a account
	a.attempted.Add(10)
	a.delivered.Add(7)
	a.broken.Add(2)
	if got := a.failed(); got != 5 {
		t.Errorf("failed = %d, want 3 undelivered + 2 broken", got)
	}

	golden := map[string]int64{"x.sim_ns": 5, "y.sim_ns": 6}
	var ok account
	if err := checkGolden(map[string]int64{"x.sim_ns": 5, "y.sim_ns": 6}, golden, &ok); err != nil || ok.failed() != 0 {
		t.Errorf("matching outputs: err %v, failed %d", err, ok.failed())
	}
	var bad account
	err := checkGolden(map[string]int64{"x.sim_ns": 5, "y.sim_ns": 7, "z.sim_ns": 1}, golden, &bad)
	if err == nil || bad.failed() != 2 {
		t.Errorf("one differing and one unknown output: err %v, failed %d, want 2", err, bad.failed())
	}
}

func TestWithUnits(t *testing.T) {
	got, err := withUnits(endToEndMetrics, map[string]float64{"setup_s": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEndMetrics) || got["setup_s"] != (metric{0.25, "s"}) || got["msgs_per_s"] != (metric{0, "1/s"}) {
		t.Errorf("withUnits = %v", got)
	}
	if _, err := withUnits(endToEndMetrics, map[string]float64{"typo": 1}); err == nil {
		t.Error("undeclared metric accepted")
	}
}

// BENCHMARK.json at the repository root must declare exactly the workloads
// and metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the counts are written for %d", doc.RunSeconds, nominalSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if i < len(aaWorkloads) && aaWorkloads[i] != w.Name {
			t.Errorf("A/A lists %q where BENCHMARK.json has %q", aaWorkloads[i], w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, declared []decl, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d reported", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	for i, d := range doc.EndToEnd {
		if i < len(aaMetrics) && (aaMetrics[i].name != d.Name || aaMetrics[i].bound != d.Bound ||
			(aaMetrics[i].better > 0) != (d.Better == "higher")) {
			t.Errorf("A/A table disagrees with BENCHMARK.json on %s", d.Name)
		}
	}
}

// The golden file must hold exactly the outputs a pass produces.
func TestGoldenCoversEveryItem(t *testing.T) {
	var golden map[string]int64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, it := range simItems {
		keys := append([]string{"sim_ns", "end_ns"}, simCounters...)
		if it.name == itemCLICPingPong {
			keys = append(keys, "send_call_ns", "recv_call_ns")
		}
		for _, k := range keys {
			want++
			if _, ok := golden[it.name+"."+k]; !ok {
				t.Errorf("golden_sim.json lacks %s.%s", it.name, k)
			}
		}
	}
	if len(golden) != want {
		t.Errorf("golden_sim.json has %d values, a pass produces %d", len(golden), want)
	}
	layer := simPerLayer(golden)
	if got := layer["clic.sim.lat0_us"]; got < 30 || got > 45 {
		t.Errorf("golden CLIC 0-byte latency %.2f us is not near the paper's 36", got)
	}
	for name, v := range layer {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v from the golden outputs", name, v)
		}
	}
}
