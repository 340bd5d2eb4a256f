package flight

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/trace"
)

// WriteChromeTrace exports a journal snapshot as Chrome Trace Format
// JSON (the array flavour), viewable in chrome://tracing or
// https://ui.perfetto.dev:
//
//   - one process per node (plus one per link and one for hardware
//     resources), one thread per pipeline stage, an X slice per span;
//   - instant events for protocol points (retransmit, drop, NACK, ...);
//   - flow events ("s"/"f" pairs) wherever one frame's consecutive spans
//     sit on different processes — the causality arrows from the
//     sender's tx spans across the wire into the receiver's ISR and
//     bottom-half spans.
//
// Timestamps are rebased to the earliest event so wall-clock journals
// stay within float precision.
func WriteChromeTrace(w io.Writer, events []Event) error {
	a := Analyze(events)

	base := int64(0)
	first := true
	for _, ev := range events {
		if first || ev.At < base {
			base = ev.At
			first = false
		}
	}
	us := func(at int64) float64 { return float64(at-base) / 1000 }

	// Stable pid per node, in name order; resources get their own.
	nodeSet := map[string]bool{}
	for _, s := range a.Spans {
		nodeSet[s.Node] = true
	}
	for _, ev := range a.Points {
		nodeSet[ev.Node] = true
	}
	for _, ev := range a.Opens {
		nodeSet[ev.Node] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for name := range nodeSet {
		nodes = append(nodes, name)
	}
	sort.Strings(nodes)
	pidOf := map[string]int{}
	for i, name := range nodes {
		pidOf[name] = i + 1
	}
	resourcePID := len(nodes) + 1

	// Stable tid per stage: canonical pipeline order first, then a track
	// for points, then anything else in order of appearance.
	tidOf := map[string]int{}
	for i, stage := range trace.SpanOrder {
		tidOf[stage] = i + 1
	}
	const pointsTID = 100
	nextTID := pointsTID + 1
	tidFor := func(stage string) int {
		id, ok := tidOf[stage]
		if !ok {
			id = nextTID
			nextTID++
			tidOf[stage] = id
		}
		return id
	}

	out := make([]map[string]any, 0, 2*len(a.Spans)+len(a.Points)+len(a.Resources))
	nameProcess := func(pid int, name string) {
		out = append(out, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]string{"name": name},
		})
	}
	for i, name := range nodes {
		nameProcess(i+1, name)
	}
	if len(a.Resources) > 0 {
		nameProcess(resourcePID, "resources")
	}
	threadNamed := map[[2]int]bool{}
	nameThread := func(pid, tid int, name string) {
		key := [2]int{pid, tid}
		if threadNamed[key] {
			return
		}
		threadNamed[key] = true
		out = append(out, map[string]any{
			"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
			"args": map[string]string{"name": name},
		})
	}

	for _, s := range a.Spans {
		pid, tid := pidOf[s.Node], tidFor(s.Stage)
		nameThread(pid, tid, s.Stage)
		out = append(out, map[string]any{
			"name": s.Stage, "ph": "X", "cat": "frame",
			"ts": us(s.Begin), "dur": us(s.End) - us(s.Begin),
			"pid": pid, "tid": tid,
			"args": map[string]any{"frame": s.Frame},
		})
	}
	for _, ev := range a.Opens {
		// A span whose End never arrived (a dropped frame): keep it
		// visible as an instant on its stage track.
		pid, tid := pidOf[ev.Node], tidFor(ev.Name)
		nameThread(pid, tid, ev.Name)
		out = append(out, map[string]any{
			"name": ev.Name + " (unfinished)", "ph": "i", "s": "t",
			"ts": us(ev.At), "pid": pid, "tid": tid,
			"args": map[string]any{"frame": ev.Frame},
		})
	}
	for _, ev := range a.Points {
		pid := pidOf[ev.Node]
		nameThread(pid, pointsTID, "events")
		out = append(out, map[string]any{
			"name": ev.Name, "ph": "i", "s": "t",
			"ts": us(ev.At), "pid": pid, "tid": pointsTID,
			"args": map[string]any{"frame": ev.Frame, "arg": ev.Arg},
		})
	}
	for _, ev := range a.Resources {
		tid := tidFor("res:" + ev.Name)
		nameThread(resourcePID, tid, ev.Name)
		out = append(out, map[string]any{
			"name": ev.Name, "ph": "X", "cat": "resource",
			"ts": us(ev.At), "dur": float64(ev.Arg) / 1000,
			"pid": resourcePID, "tid": tid,
		})
	}

	// Flow events: one arrow per cross-process handoff within a frame's
	// span chain. The "s" end is anchored inside the source slice (its
	// end, clamped into the slice) and the "f" end binds to the enclosing
	// slice at the destination's begin (bp "e").
	flowID := 0
	frames := make([]uint64, 0, len(a.byFrame))
	for frame := range a.byFrame {
		frames = append(frames, frame)
	}
	sort.Slice(frames, func(i, k int) bool { return frames[i] < frames[k] })
	for _, frame := range frames {
		spans := a.byFrame[frame]
		for i := 1; i < len(spans); i++ {
			src, dst := spans[i-1], spans[i]
			if src.Node == dst.Node {
				continue
			}
			flowID++
			srcTS := src.End
			if srcTS > dst.Begin {
				srcTS = dst.Begin
			}
			if srcTS < src.Begin {
				srcTS = src.Begin
			}
			out = append(out, map[string]any{
				"name": "frame", "ph": "s", "cat": "flow", "id": flowID,
				"ts": us(srcTS), "pid": pidOf[src.Node], "tid": tidFor(src.Stage),
				"args": map[string]any{"frame": frame},
			})
			out = append(out, map[string]any{
				"name": "frame", "ph": "f", "bp": "e", "cat": "flow", "id": flowID,
				"ts": us(dst.Begin), "pid": pidOf[dst.Node], "tid": tidFor(dst.Stage),
				"args": map[string]any{"frame": frame},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
