package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The traced run records a span around every call the benchmark makes into
// a layer. Spans live in memory, one slice per goroutine (a track) so
// recording takes no lock, and are written as Chrome-trace JSON when the run
// ends. Nothing inside the program under test is touched.

// spanID names a span across tracks: track number + 1 in the high half,
// position on the track in the low half. 0 is "no span".
type spanID uint64

// span holds no pointer, so the collector never scans the span slices.
type span struct {
	name       spanName
	parent     spanID
	msg        int64 // message sequence number, -1 for spans that are not one message
	start, end int64 // ns since the tracer's epoch
}

// spanName is an index into spanNames: each span is named after the
// function it wraps.
type spanName uint8

const (
	spanSend spanName = iota
	spanRecv
	spanStreamRound
	spanEchoRound
	spanSimPass
	spanSimItem
	spanSimSend
	spanSimRecv
)

var spanNames = [...]string{
	spanSend:        "live.Node.Send",
	spanRecv:        "live.Node.Recv",
	spanStreamRound: "round.stream",
	spanEchoRound:   "round.echo",
	spanSimPass:     "sim.pass",
	spanSimItem:     "sim.item",
	spanSimSend:     "sim.Send",
	spanSimRecv:     "sim.Recv",
}

// track is the span list of one goroutine. A nil track records nothing, so
// untraced rounds run the same code.
type track struct {
	num   int
	name  string
	epoch time.Time
	spans []span
	args  map[int]map[string]float64 // counter deltas of coarse spans, by position
}

type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track adds a track with room for capacity spans. A nil tracer gives a nil
// track.
func (t *tracer) track(name string, capacity int) *track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &track{num: len(t.tracks), name: name, epoch: t.epoch, spans: make([]span, 0, capacity)}
	t.tracks = append(t.tracks, k)
	return k
}

// begin opens a span and returns its position on the track.
func (k *track) begin(name spanName, parent spanID, msg int64) int {
	if k == nil {
		return 0
	}
	k.spans = append(k.spans, span{name: name, parent: parent, msg: msg, start: int64(time.Since(k.epoch))})
	return len(k.spans) - 1
}

// end closes the span begin returned.
func (k *track) end(i int) {
	if k == nil {
		return
	}
	k.spans[i].end = int64(time.Since(k.epoch))
}

// id is the cross-track name of the span at position i.
func (k *track) id(i int) spanID {
	if k == nil {
		return 0
	}
	return spanID(uint64(k.num+1)<<32 | uint64(i))
}

// setArgs attaches counter deltas to a coarse span.
func (k *track) setArgs(i int, args map[string]float64) {
	if k == nil {
		return
	}
	if k.args == nil {
		k.args = map[int]map[string]float64{}
	}
	k.args[i] = args
}

// durations returns the length in ns of every closed span called name on
// the given tracks.
func durations(name spanName, tracks ...*track) []float64 {
	var out []float64
	for _, k := range tracks {
		for i := range k.spans {
			if s := &k.spans[i]; s.name == name && s.end > 0 {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// selfTimes returns, for every closed span called name, its self time in ns:
// its duration minus what its direct children cover.
func (t *tracer) selfTimes(name spanName) []float64 {
	children := map[spanID][]interval{}
	for _, k := range t.tracks {
		for i := range k.spans {
			if s := &k.spans[i]; s.parent != 0 && s.end > 0 {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		}
	}
	var out []float64
	for _, k := range t.tracks {
		for i := range k.spans {
			if s := &k.spans[i]; s.name == name && s.end > 0 {
				out = append(out, float64(selfTime(interval{s.start, s.end}, children[k.id(i)])))
			}
		}
	}
	return out
}

// selfShare is the summed self time of the spans called name over their
// summed duration: the part of a round or item in which no goroutine of the
// benchmark was inside a call into a layer, which is what the benchmark's own
// code (stamping, checking, starting goroutines, building a cluster) costs.
func (t *tracer) selfShare(name spanName) float64 {
	self, total := 0.0, 0.0
	for _, v := range t.selfTimes(name) {
		self += v
	}
	for _, v := range durations(name, t.tracks...) {
		total += v
	}
	if total == 0 {
		return 0
	}
	return self / total
}

// maxFileSpans bounds the span file: a ping-pong run records over a million
// call spans, which no trace viewer opens. Each track writes its earliest
// spans up to an equal share; the number left out is stated in the file.
const maxFileSpans = 200_000

// write stores the spans as Chrome-trace JSON (chrome://tracing, Perfetto):
// one complete event per span, its id, parent id and message id in args.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	share := maxFileSpans
	if n := len(t.tracks); n > 0 {
		share = maxFileSpans / n
	}
	omitted := 0
	for _, k := range t.tracks {
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}},`+"\n",
			k.num+1, strconv.Quote(k.name))
		for i := range k.spans {
			s := &k.spans[i]
			if s.end == 0 {
				continue
			}
			if i >= share {
				omitted += len(k.spans) - i
				break
			}
			fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"msg":%d`,
				strconv.Quote(spanNames[s.name]), k.num+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3,
				uint64(k.id(i)), uint64(s.parent), s.msg)
			args := k.args[i]
			keys := make([]string, 0, len(args))
			for key := range args {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				fmt.Fprintf(w, `,%s:%s`, strconv.Quote(key), strconv.FormatFloat(args[key], 'g', -1, 64))
			}
			w.WriteString("}},\n")
		}
	}
	fmt.Fprintf(w, `{"name":"spans_omitted","ph":"M","pid":1,"tid":0,"args":{"count":%d}}`+"\n]\n", omitted)
	return w.Flush()
}
