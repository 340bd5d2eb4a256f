package flight

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Span is one stitched begin/end pair: frame's time in one pipeline
// stage. Node is where the span began; EndNode where it ended (they
// differ only for the wire span, which starts on the sender's link and
// ends at the receiver's NIC).
type Span struct {
	Frame   uint64
	Stage   string
	Node    string
	EndNode string
	Begin   int64
	End     int64
}

// Dur returns the span's duration.
func (s Span) Dur() int64 { return s.End - s.Begin }

// Analysis is the stitched view of a journal snapshot.
type Analysis struct {
	Spans     []Span
	Points    []Event
	Resources []Event

	// Opens are Begin events whose End never arrived (dropped frames,
	// spans cut off by the ring overwriting their End's Begin).
	Opens []Event

	byFrame map[uint64][]Span
}

// Analyze stitches a snapshot's begin/end events into spans. Matching is
// most-recent-open per (frame, stage): same-frame same-stage spans can
// only nest through the Span fast path, which appends its pair
// adjacently, so LIFO pairing is exact.
func Analyze(events []Event) *Analysis {
	a := &Analysis{byFrame: map[uint64][]Span{}}
	opens := map[spanKey][]int{} // indices of unmatched Begin events
	for i, ev := range events {
		key := spanKey{frame: ev.Frame, stage: ev.Name}
		switch ev.Kind {
		case KindBegin:
			opens[key] = append(opens[key], i)
		case KindEnd:
			stack := opens[key]
			if len(stack) == 0 {
				continue // Begin was overwritten by the ring
			}
			o := events[stack[len(stack)-1]]
			opens[key] = stack[:len(stack)-1]
			a.Spans = append(a.Spans, Span{
				Frame: ev.Frame, Stage: ev.Name,
				Node: o.Node, EndNode: ev.Node,
				Begin: o.At, End: ev.At,
			})
		case KindPoint:
			a.Points = append(a.Points, ev)
		case KindResource:
			a.Resources = append(a.Resources, ev)
		}
	}
	var unmatched []int
	for _, idx := range opens {
		unmatched = append(unmatched, idx...)
	}
	// Recording order, then a stable sort by time, so one snapshot always
	// yields the same Opens (and the same Chrome export).
	sort.Ints(unmatched)
	for _, i := range unmatched {
		a.Opens = append(a.Opens, events[i])
	}
	// Ties on Begin sort longest-first so a containing span precedes the
	// spans it encloses — the order FrameSummary.Tree nests by.
	sort.Slice(a.Spans, func(i, k int) bool {
		if a.Spans[i].Begin != a.Spans[k].Begin {
			return a.Spans[i].Begin < a.Spans[k].Begin
		}
		return a.Spans[i].End > a.Spans[k].End
	})
	sort.SliceStable(a.Opens, func(i, k int) bool { return a.Opens[i].At < a.Opens[k].At })
	for _, s := range a.Spans {
		if s.Frame != 0 {
			a.byFrame[s.Frame] = append(a.byFrame[s.Frame], s)
		}
	}
	return a
}

// StageStat aggregates one pipeline stage across every recorded frame.
// Quantiles come from a latency histogram's bucket interpolation
// (telemetry.Histogram.Quantile), not raw-sample sorting.
type StageStat struct {
	Stage string
	Count int64
	P50   float64
	P99   float64
	Mean  float64
	Max   float64
}

// Breakdown aggregates span durations per stage, ordered by the
// canonical pipeline order (trace.SpanOrder) with unknown stages
// appended alphabetically.
func (a *Analysis) Breakdown() []StageStat {
	hists := map[string]*telemetry.Histogram{}
	for _, s := range a.Spans {
		h, ok := hists[s.Stage]
		if !ok {
			h = telemetry.NewHistogram(telemetry.DefLatencyBuckets())
			hists[s.Stage] = h
		}
		d := s.Dur()
		if d < 0 {
			d = 0
		}
		h.Observe(float64(d))
	}
	rank := map[string]int{}
	for i, name := range trace.SpanOrder {
		rank[name] = i
	}
	stages := make([]string, 0, len(hists))
	for name := range hists {
		stages = append(stages, name)
	}
	sort.Slice(stages, func(i, k int) bool {
		ri, iKnown := rank[stages[i]]
		rk, kKnown := rank[stages[k]]
		switch {
		case iKnown && kKnown:
			return ri < rk
		case iKnown:
			return true
		case kKnown:
			return false
		default:
			return stages[i] < stages[k]
		}
	})
	out := make([]StageStat, 0, len(stages))
	for _, name := range stages {
		h := hists[name]
		out = append(out, StageStat{
			Stage: name,
			Count: h.N(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
			Mean:  h.Mean(),
			Max:   h.Max(),
		})
	}
	return out
}

// BreakdownTable renders Breakdown as the Fig. 7-style aligned table, in
// microseconds.
func (a *Analysis) BreakdownTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %10s\n",
		"stage", "count", "p50 (µs)", "p99 (µs)", "mean (µs)", "max (µs)")
	for _, st := range a.Breakdown() {
		fmt.Fprintf(&b, "%-14s %8d %10.2f %10.2f %10.2f %10.2f\n",
			st.Stage, st.Count, st.P50/1000, st.P99/1000, st.Mean/1000, st.Max/1000)
	}
	return b.String()
}

// FrameSummary is one frame's end-to-end view: total is first span begin
// to last span end across every node it touched.
type FrameSummary struct {
	Frame uint64
	Total int64
	Spans []Span
}

// Frame returns one frame's summary: every span it left in the
// snapshot, in begin order.
func (a *Analysis) Frame(id uint64) (FrameSummary, bool) {
	spans, ok := a.byFrame[id]
	if !ok {
		return FrameSummary{}, false
	}
	return summarize(id, spans), true
}

// summarize spans a frame's end-to-end time over its spans.
func summarize(frame uint64, spans []Span) FrameSummary {
	lo, hi := spans[0].Begin, spans[0].End
	for _, s := range spans[1:] {
		if s.Begin < lo {
			lo = s.Begin
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return FrameSummary{Frame: frame, Total: hi - lo, Spans: spans}
}

// SlowestFrames returns the n frames with the largest end-to-end time,
// slowest first — the tail a single traced packet never shows.
func (a *Analysis) SlowestFrames(n int) []FrameSummary {
	out := make([]FrameSummary, 0, len(a.byFrame))
	for frame, spans := range a.byFrame {
		out = append(out, summarize(frame, spans))
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Total != out[k].Total {
			return out[i].Total > out[k].Total
		}
		return out[i].Frame < out[k].Frame
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Tree renders the frame's spans as an indented tree: a span nests under
// the previous span that wholly contains it, timestamps rebased to the
// frame's first event (µs).
func (f FrameSummary) Tree() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frame %d: %.2f µs end-to-end\n", f.Frame, float64(f.Total)/1000)
	if len(f.Spans) == 0 {
		return b.String()
	}
	base := f.Spans[0].Begin
	for _, s := range f.Spans {
		if s.Begin < base {
			base = s.Begin
		}
	}
	var stack []Span
	for _, s := range f.Spans {
		for len(stack) > 0 && s.Begin >= stack[len(stack)-1].End {
			stack = stack[:len(stack)-1]
		}
		node := s.Node
		if s.EndNode != "" && s.EndNode != s.Node {
			node += "→" + s.EndNode
		}
		fmt.Fprintf(&b, "  %s%-*s %9.2f → %9.2f  (%.2f µs)  [%s]\n",
			strings.Repeat("  ", len(stack)), 14-2*len(stack), s.Stage,
			float64(s.Begin-base)/1000, float64(s.End-base)/1000,
			float64(s.Dur())/1000, node)
		stack = append(stack, s)
	}
	return b.String()
}

// Stalls returns bottom-half dispatch spans (bh-queue: ISR handoff →
// bottom half starts) that exceeded threshold ns — the frames a busy CPU
// or a coalescing window parked, sorted worst first.
func (a *Analysis) Stalls(threshold int64) []Span {
	var out []Span
	for _, s := range a.Spans {
		if (s.Stage == trace.SpanBHQueue || s.Stage == trace.SpanBHDispatch) && s.Dur() > threshold {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Dur() > out[k].Dur() })
	return out
}
