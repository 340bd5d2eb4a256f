// Command clicstat renders a CLIC health document — the JSON served at
// cliclive's /debug/clic endpoint or written by clicsim -health-out —
// as a top-style terminal view of peers and channels, sorted by stall
// severity or transfer rate.
//
// Usage:
//
//	clicstat -url http://127.0.0.1:9090/debug/clic          one-shot
//	clicstat -url http://127.0.0.1:9090/debug/clic -watch 1s live view
//	clicstat -file health.json                              from a file
//	clicstat -file health.json -sort rate
//
// In -watch mode the view refreshes in place and per-channel rates are
// computed from consecutive samples (sequence delta over elapsed time);
// a one-shot render has no rate column. Exit a watch with Ctrl-C.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/health"
)

func main() {
	var (
		url     = flag.String("url", "http://127.0.0.1:9090/debug/clic", "health endpoint to read")
		file    = flag.String("file", "", "read the health document from this file instead of -url")
		watch   = flag.Duration("watch", 0, "refresh interval for a live top-style view (0 = one-shot)")
		samples = flag.Int("samples", 0, "in watch mode, exit after this many refreshes (0 = run until interrupted)")
		sortBy  = flag.String("sort", "stall", "channel order: stall, rate or peer")
	)
	flag.Parse()
	switch *sortBy {
	case "stall", "rate", "peer":
	default:
		fmt.Fprintf(os.Stderr, "clicstat: unknown sort %q (want stall, rate or peer)\n", *sortBy)
		os.Exit(2)
	}

	var prev *health.Doc
	for i := 0; ; i++ {
		doc, err := fetch(*url, *file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clicstat: %v\n", err)
			os.Exit(1)
		}
		if *watch > 0 {
			fmt.Print("\x1b[2J\x1b[H") // clear and home, top-style
		}
		render(os.Stdout, doc, prev, *sortBy)
		if *watch <= 0 || (*samples > 0 && i+1 >= *samples) {
			return
		}
		prev = doc
		time.Sleep(*watch)
	}
}

// fetch reads the health document from a file or an HTTP endpoint.
func fetch(url, file string) (*health.Doc, error) {
	var doc health.Doc
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		return &doc, nil
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return &doc, nil
}

// row is one channel prepared for display.
type row struct {
	node string
	ch   health.ChannelSnapshot
	// stallNs is time since the channel's last forward progress, against
	// the document's capture time.
	stallNs int64
	// rate is frames/s against the previous sample; NaN-free: -1 means
	// unknown (no previous sample).
	rate float64
}

// render writes the document as a table. prev, when non-nil, is the
// previous sample for rate computation (watch mode).
func render(w *os.File, doc, prev *health.Doc, sortBy string) {
	fmt.Fprintf(w, "clicstat  clock=%s  captured=%s  nodes=%d  links=%d\n\n",
		doc.Clock, stamp(doc), len(doc.Nodes), len(doc.Links))

	var rows []row
	for ni := range doc.Nodes {
		node := &doc.Nodes[ni]
		for _, ch := range node.Channels {
			r := row{node: node.Node, ch: ch, rate: -1}
			if ch.LastProgressNs > 0 && node.CapturedNs > ch.LastProgressNs {
				r.stallNs = node.CapturedNs - ch.LastProgressNs
			}
			if p := findChan(prev, node.Node, ch.Peer, ch.Dir); p != nil {
				dt := float64(node.CapturedNs - prevNode(prev, node.Node).CapturedNs)
				if dt > 0 {
					var df uint32
					if ch.Dir == "tx" {
						df = ch.NextSeq - p.NextSeq
					} else {
						df = ch.CumAck - p.CumAck
					}
					r.rate = float64(df) / (dt / 1e9)
				}
			}
			rows = append(rows, r)
		}
	}
	sortRows(rows, sortBy)

	fmt.Fprintf(w, "%-8s %5s %-3s %7s %7s %7s %10s %10s %9s %9s %5s %10s %10s\n",
		"NODE", "PEER", "DIR", "WINDOW", "INFLT", "EDGE", "NEXT/CUM", "ACKED", "RTO", "SRTT", "RETR", "STALL", "RATE")
	for _, r := range rows {
		ch := &r.ch
		seq, acked := fmt.Sprint(ch.NextSeq), fmt.Sprint(ch.AckedSeq)
		win, inflt := fmt.Sprint(ch.Window), fmt.Sprint(ch.InFlight)
		rto, srtt := durOrDash(ch.RTONs), durOrDash(ch.SRTTNs)
		// EDGE is the flow-control grant seen from each side, comparable
		// with NEXT/CUM: on tx the highest edge the peer's acks carried,
		// on rx the highest this channel advertised.
		edge := fmt.Sprint(ch.AckedSeq + uint32(ch.Credit))
		if ch.Dir == "rx" {
			seq, acked = fmt.Sprint(ch.CumAck), "-"
			win, inflt = "-", fmt.Sprintf("p%d", ch.Parked)
			rto, srtt = "-", "-"
			edge = fmt.Sprint(ch.AdvEdge)
		}
		mark := " "
		if ch.Failed {
			mark = "!"
		}
		fmt.Fprintf(w, "%-8s %5d %-3s%s %6s %7s %7s %10s %10s %9s %9s %5d %10s %10s\n",
			r.node, ch.Peer, ch.Dir, mark, win, inflt, edge, seq, acked, rto, srtt,
			ch.Retries, durOrDash(r.stallNs), rateOrDash(r.rate))
	}

	for ni := range doc.Nodes {
		node := &doc.Nodes[ni]
		var extra []string
		// One entry per RX shard: frames/bursts and the bursts an
		// application goroutine read directly.
		for _, sh := range node.Shards {
			s := fmt.Sprintf("shard%d %df/%db", sh.Shard, sh.Frames, sh.Bursts)
			if sh.Direct > 0 {
				s += fmt.Sprintf(" (%d direct)", sh.Direct)
			}
			extra = append(extra, s)
		}
		if node.Pool != nil {
			extra = append(extra, fmt.Sprintf("pool %d out (%d gets, %d puts, %d allocs)",
				node.Pool.Outstanding, node.Pool.Gets, node.Pool.Puts, node.Pool.Allocs))
		}
		for _, k := range sortedKeys(node.Counters) {
			extra = append(extra, fmt.Sprintf("%s %d", k, node.Counters[k]))
		}
		if len(extra) > 0 {
			fmt.Fprintf(w, "\n%s: %s\n", node.Node, strings.Join(extra, ", "))
		}
	}
	if len(doc.Links) > 0 {
		fmt.Fprintf(w, "\n%-14s %-5s %10s %12s %7s %6s %8s %8s %6s\n",
			"LINK", "DIR", "FRAMES", "BYTES", "DROPS", "DUPS", "REORDER", "CORRUPT", "UTIL")
		for _, l := range doc.Links {
			fmt.Fprintf(w, "%-14s %-5s %10d %12d %7d %6d %8d %8d %5.1f%%\n",
				l.Link, l.Dir, l.Frames, l.Bytes, l.Drops, l.Dups, l.Reorders, l.Corrupts,
				100*l.Utilization)
		}
	}
}

func sortRows(rows []row, by string) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		switch by {
		case "stall":
			if a.stallNs != b.stallNs {
				return a.stallNs > b.stallNs
			}
		case "rate":
			if a.rate != b.rate {
				return a.rate > b.rate
			}
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.ch.Peer != b.ch.Peer {
			return a.ch.Peer < b.ch.Peer
		}
		return a.ch.Dir < b.ch.Dir
	})
}

// findChan locates the same channel in the previous sample.
func findChan(prev *health.Doc, node string, peer int, dir string) *health.ChannelSnapshot {
	n := prevNode(prev, node)
	if n == nil {
		return nil
	}
	for i := range n.Channels {
		ch := &n.Channels[i]
		if ch.Peer == peer && ch.Dir == dir {
			return ch
		}
	}
	return nil
}

func prevNode(prev *health.Doc, node string) *health.NodeSnapshot {
	if prev == nil {
		return nil
	}
	for i := range prev.Nodes {
		if prev.Nodes[i].Node == node {
			return &prev.Nodes[i]
		}
	}
	return nil
}

// stamp formats the document capture time: an absolute time for wall
// clocks, a duration offset for simulated ones.
func stamp(doc *health.Doc) string {
	if doc.Clock == "sim" {
		return fmt.Sprintf("t+%v", time.Duration(doc.CapturedNs))
	}
	return time.Unix(0, doc.CapturedNs).Format("15:04:05.000")
}

func durOrDash(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func rateOrDash(rate float64) string {
	if rate < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f f/s", rate)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
