package perfreg

import (
	"bytes"
	"compress/gzip"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// --- synthetic profile encoder (test-only) -------------------------------
// Hand-rolled profile.proto writer producing exactly the shapes the
// runtime emits (packed sample values, label submessages), so the
// decoder's arithmetic can be asserted against known numbers.

type protoBuf struct{ bytes.Buffer }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *protoBuf) tag(num, wt int) { p.varint(uint64(num<<3 | wt)) }

func (p *protoBuf) bytesField(num int, b []byte) {
	p.tag(num, 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *protoBuf) varintField(num int, v uint64) {
	p.tag(num, 0)
	p.varint(v)
}

type synthSample struct {
	values []int64
	labels map[string]string
}

// buildProfile encodes a profile with the given sample types (pairs of
// type/unit names) and samples. String table index 0 is "" per the
// profile.proto convention.
func buildProfile(t *testing.T, types [][2]string, samples []synthSample, gzipped bool) []byte {
	t.Helper()
	strs := []string{""}
	idx := func(s string) uint64 {
		for i, have := range strs {
			if have == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var top protoBuf
	for _, ty := range types {
		var vt protoBuf
		vt.varintField(vtType, idx(ty[0]))
		vt.varintField(vtUnit, idx(ty[1]))
		top.bytesField(profSampleType, vt.Bytes())
	}
	for _, s := range samples {
		var sm protoBuf
		var packed protoBuf
		for _, v := range s.values {
			packed.varint(uint64(v))
		}
		sm.bytesField(sampleValue, packed.Bytes())
		for k, v := range s.labels {
			var lb protoBuf
			lb.varintField(labelKey, idx(k))
			lb.varintField(labelStr, idx(v))
			sm.bytesField(sampleLabel, lb.Bytes())
		}
		top.bytesField(profSample, sm.Bytes())
	}
	// String table last: the decoder must tolerate forward references.
	for _, s := range strs {
		top.bytesField(profStringTable, []byte(s))
	}
	if !gzipped {
		return top.Bytes()
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(top.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	types := [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}}
	samples := []synthSample{
		{values: []int64{3, 300}, labels: map[string]string{LabelKey: trace.SpanModuleSend}},
		{values: []int64{1, 100}, labels: map[string]string{LabelKey: trace.SpanModuleSend}},
		{values: []int64{2, 400}, labels: map[string]string{LabelKey: trace.SpanModuleRx}},
		{values: []int64{1, 150}, labels: map[string]string{LabelKey: StageRTOTimer}},
		{values: []int64{4, 50}},                                       // unlabeled
		{values: []int64{1, 100}, labels: map[string]string{"pid": "7"}}, // foreign label only
	}
	for _, gzipped := range []bool{false, true} {
		rows, unit, err := Attribute(bytes.NewReader(buildProfile(t, types, samples, gzipped)))
		if err != nil {
			t.Fatalf("gzipped=%v: %v", gzipped, err)
		}
		if unit != "cpu/nanoseconds" {
			t.Errorf("unit = %q, want cpu/nanoseconds", unit)
		}
		want := []StageCPU{
			{Stage: trace.SpanModuleSend, Value: 400, Samples: 4},
			{Stage: trace.SpanModuleRx, Value: 400, Samples: 2},
			{Stage: StageRTOTimer, Value: 150, Samples: 1},
			{Stage: UnlabeledStage, Value: 150, Samples: 5},
		}
		if len(rows) != len(want) {
			t.Fatalf("gzipped=%v: got %d rows %+v, want %d", gzipped, len(rows), rows, len(want))
		}
		var total float64
		for i, w := range want {
			g := rows[i]
			if g.Stage != w.Stage || g.Value != w.Value || g.Samples != w.Samples {
				t.Errorf("gzipped=%v row %d = %+v, want %+v", gzipped, i, g, w)
			}
			total += g.Fraction
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("fractions sum to %g, want 1", total)
		}
	}
}

func TestAttributeOrderMatchesPipeline(t *testing.T) {
	// Feed stages in scrambled order; rows must come back in SpanOrder
	// position with timers after and unlabeled last.
	types := [][2]string{{"cpu", "nanoseconds"}}
	samples := []synthSample{
		{values: []int64{1}},
		{values: []int64{1}, labels: map[string]string{LabelKey: StageRTOTimer}},
		{values: []int64{1}, labels: map[string]string{LabelKey: trace.SpanISR}},
		{values: []int64{1}, labels: map[string]string{LabelKey: trace.SpanSendSyscall}},
		{values: []int64{1}, labels: map[string]string{LabelKey: "mystery-stage"}},
	}
	rows, _, err := Attribute(bytes.NewReader(buildProfile(t, types, samples, false)))
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, r := range rows {
		order = append(order, r.Stage)
	}
	want := []string{trace.SpanSendSyscall, trace.SpanISR, StageRTOTimer, "mystery-stage", UnlabeledStage}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("row order %v, want %v", order, want)
	}
}

func TestAttributeRejectsGarbage(t *testing.T) {
	if _, _, err := Attribute(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := Attribute(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty profile accepted")
	}
}

// TestAttributeRealCapture runs labeled busy loops under a real CPU
// profile and checks the runtime-encoded profile decodes with the
// expected stages dominating — the end-to-end proof that our decoder
// understands what runtime/pprof actually writes.
func TestAttributeRealCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("captures a 300ms CPU profile")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin := func(d time.Duration) {
		x := 0
		for end := time.Now().Add(d); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				x += i * i
			}
		}
		_ = x
	}
	for _, stage := range []string{trace.SpanModuleSend, trace.SpanModuleRx} {
		Do(context.Background(), stage, func() { spin(150 * time.Millisecond) })
	}
	pprof.StopCPUProfile()

	rows, unit, err := Attribute(&buf)
	if err != nil {
		t.Fatalf("decoding a runtime-written profile: %v", err)
	}
	if unit != "cpu/nanoseconds" {
		t.Errorf("unit = %q", unit)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r.Stage] = r.Value
	}
	// 150ms of spinning at 100Hz sampling ≈ 15 samples; require a loose
	// floor so scheduler noise can't flake the test.
	for _, stage := range []string{trace.SpanModuleSend, trace.SpanModuleRx} {
		if got[stage] < int64(30*time.Millisecond) {
			t.Errorf("stage %q attributed only %v CPU ns in %+v", stage, got[stage], rows)
		}
	}
	if s := FormatStageTable(rows, unit); !strings.Contains(s, trace.SpanModuleSend) {
		t.Errorf("FormatStageTable missing stage rows:\n%s", s)
	}
}
