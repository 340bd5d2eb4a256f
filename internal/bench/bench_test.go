package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clic"
	"repro/internal/model"
	"repro/internal/trace"
)

func TestSweepSizesGrid(t *testing.T) {
	sizes := SweepSizes()
	if sizes[0] != 10 || sizes[len(sizes)-1] != 10_000_000 {
		t.Errorf("grid endpoints %d..%d", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("grid not increasing at %d", i)
		}
	}
}

func TestHalfBandwidthPointSynthetic(t *testing.T) {
	// bw(s) = B*s/(LB+s): the half point is exactly s = L*B.
	sizes := []int{1000, 2000, 4000, 8000, 16000, 32000}
	lb := 4000.0
	bw := make([]float64, len(sizes))
	for i, s := range sizes {
		bw[i] = 100 * float64(s) / (lb + float64(s))
	}
	// Max in this grid is bw(32000) ≈ 88.9; half ≈ 44.4, first reached
	// at s=4000 (bw=50).
	if got := HalfBandwidthPoint(sizes, bw); got != 4000 {
		t.Errorf("half point %d, want 4000", got)
	}
}

func TestAsymptoticBandwidthSynthetic(t *testing.T) {
	sizes := make([]int, 8)
	bw := make([]float64, 8)
	for i := range sizes {
		sizes[i] = 1 << i
		bw[i] = 100
	}
	bw[7] = 200 // top quarter = last 2 entries: (100+200)/2
	if got := AsymptoticBandwidth(sizes, bw); got != 150 {
		t.Errorf("asymptotic %f, want 150", got)
	}
}

func TestLatencyMatchesPaper(t *testing.T) {
	lat := Latency(CLICPair(clic.DefaultOptions()), nil, 0, 10)
	us := float64(lat) / 1000
	if us < 30 || us > 42 {
		t.Errorf("0-byte latency %.1f µs, want within ~±6 of the paper's 36", us)
	}
}

func TestBandwidthOrderingCLICvsTCP(t *testing.T) {
	// The paper's central claim in miniature: at both MTUs CLIC beats
	// TCP by at least 2x on large messages.
	for _, mtu := range []int{1500, 9000} {
		p := model.Default()
		p.NIC.MTU = mtu
		c := Bandwidth(CLICPair(clic.DefaultOptions()), &p, 1_000_000, 2)
		tc := Bandwidth(TCPPair(), &p, 1_000_000, 2)
		if c < 2*tc {
			t.Errorf("MTU %d: CLIC %.0f vs TCP %.0f — less than 2x", mtu, c, tc)
		}
	}
}

func TestPipelineTraceStages(t *testing.T) {
	pl := PipelineTrace(nil, clic.DefaultOptions(), 1400)
	for _, stage := range []string{
		trace.SpanSendSyscall, trace.SpanModuleSend, trace.SpanDriverTx,
		trace.SpanTxDMA, trace.SpanWire, trace.SpanRxDMA, trace.SpanISR,
		trace.SpanBHQueue, trace.SpanBottomHalf, trace.SpanModuleRx,
		trace.SpanCopyToUser,
	} {
		if _, ok := pl.Span(stage); !ok {
			t.Errorf("traced frame missing stage %q", stage)
		}
	}
	if pl.SendCall >= pl.SendReturn || pl.SendReturn >= pl.RecvReturn {
		t.Errorf("app times out of order: send call %d, send return %d, recv return %d",
			pl.SendCall, pl.SendReturn, pl.RecvReturn)
	}
	// The Fig. 7 claim: the receiver ISR stage dominates the post-wire
	// path in bottom-half mode.
	isr, ok := pl.DriverStage()
	if !ok || isr < 10_000 {
		t.Errorf("ISR stage %d ns, want the dominant ~15-22 µs", isr)
	}
	direct := clic.DefaultOptions()
	direct.RxMode = clic.RxDirectCall
	plD := PipelineTrace(nil, direct, 1400)
	if ta, tb := pl.OneWay(), plD.OneWay(); tb >= ta {
		t.Errorf("direct-call (%d) not faster than bottom-half (%d)", tb, ta)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID: "x", Title: "demo", PaperRef: "Fig. 0",
		XLabel: "size", YLabel: "Mb/s",
		Columns: []string{"a", "b"},
	}
	r.AddRow(10, 1, 2)
	r.AddRow(100, 3, math.NaN())
	r.Notef("note %d", 42)

	tab := r.Table()
	for _, want := range []string{"demo", "Fig. 0", "note 42", "size"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "size,a,b\n10,1,2\n") {
		t.Errorf("csv malformed:\n%s", csv)
	}
	if !strings.Contains(csv, "100,3,\n") {
		t.Errorf("csv NaN handling wrong:\n%s", csv)
	}
	chart := r.Chart(40, 8)
	if chart == "" || !strings.Contains(chart, "*=a") {
		t.Errorf("chart missing legend:\n%s", chart)
	}
}

func TestStreamBandwidthSane(t *testing.T) {
	bw := StreamBandwidth(CLICPair(clic.DefaultOptions()), nil, 100_000, 4)
	if bw < 100 || bw > 1000 {
		t.Errorf("stream bandwidth %.0f Mb/s implausible", bw)
	}
}

func TestBandwidthMonotoneOverDecades(t *testing.T) {
	// Large messages must beat small ones by a wide margin.
	p := model.Default()
	small := Bandwidth(CLICPair(clic.DefaultOptions()), &p, 100, 3)
	big := Bandwidth(CLICPair(clic.DefaultOptions()), &p, 1_000_000, 2)
	if big < 5*small {
		t.Errorf("bandwidth curve too flat: %.1f at 100 B vs %.1f at 1 MB", small, big)
	}
}
