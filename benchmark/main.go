// Command benchmark is the repository's performance benchmark: four
// workloads of fixed-size rounds over the live UDP stack and the simulator,
// four end-to-end metrics each, and with -trace 1 a per-layer table plus a
// span file. README.md in this directory defines every metric and workload.
//
//	bash benchmark/run.sh -workload live_bulk -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. All traffic crosses the loopback
// interface or the discrete-event simulator; no real link is involved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nominalSeconds is the run length BENCHMARK.json asks for. A run lasts
// -seconds of wall time whatever the host's speed: the size of every round
// is a constant, so two commits do identical work in a round, and rounds are
// made until the time is used. How many there were only sets how well the
// median over them is known.
const nominalSeconds = 30

// nominalColdStarts is the cold starts behind setup_s at nominalSeconds;
// -seconds scales it in proportion.
const nominalColdStarts = 45

// What a run keeps of its -seconds for the work after the last round:
// closing and printing, and in a traced run the leaf kernels and the span
// file as well.
const (
	closingReserve = 1 * time.Second
	tracedReserve  = 5 * time.Second
)

// spanDir is where a traced run writes its span file: the build directory
// run.sh makes at the root of the checkout, which .gitignore names.
const spanDir = ".bench_build"

// stallDeadline is how long a run may go without delivering a message
// before it is declared stalled.
const stallDeadline = 10 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// account counts operations for the whole run. An operation is one message
// that must reach the application exactly once, in order and intact, or one
// golden value that must match.
type account struct {
	attempted atomic.Int64
	delivered atomic.Int64 // operations that succeeded
	broken    atomic.Int64 // failures that are not a missing delivery: port drops, stray messages
	ticks     atomic.Int64 // progress that is not a delivery (leaf kernels)

	mu      sync.Mutex
	onStall func() // closes whatever the watchdog must close before it exits
}

// failed is every attempted operation that did not succeed, plus breakage.
func (a *account) failed() int64 {
	return a.attempted.Load() - a.delivered.Load() + a.broken.Load()
}

func (a *account) setOnStall(fn func()) {
	a.mu.Lock()
	a.onStall = fn
	a.mu.Unlock()
}

// watch is the stall watchdog. live.Node.Recv has no timeout and
// Cluster.Run has none either, so every wait in the benchmark is covered
// from here: when neither a delivery nor a tick happened for stallDeadline,
// the nodes are closed, the undelivered messages are reported as failed and
// the process exits non-zero.
func (a *account) watch() {
	last, since := int64(-1), time.Now()
	for range time.Tick(250 * time.Millisecond) {
		now := a.delivered.Load() + a.ticks.Load()
		if now != last {
			last, since = now, time.Now()
			continue
		}
		if time.Since(since) < stallDeadline {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchmark: stalled: no delivery for %v, %d of %d operations done\n",
			stallDeadline, a.delivered.Load(), a.attempted.Load())
		// The result goes out before the nodes are closed: closing them
		// unblocks Recv in the main goroutine, which would otherwise print a
		// result of its own beside this one.
		emit(result{Correct: false, Attempted: max(a.attempted.Load(), 1), Failed: max(a.failed(), 1),
			Metrics: map[string]metric{}})
		a.mu.Lock()
		if a.onStall != nil {
			a.onStall()
		}
		os.Exit(1)
	}
}

// emitOnce lets the watchdog and the main goroutine both reach emit while
// only the first of them prints.
var emitOnce sync.Once

// emit prints the result line. A process prints one: later calls do nothing.
func emit(r result) {
	emitOnce.Do(func() {
		b, err := json.Marshal(r)
		if err != nil {
			fatalf("encoding result: %v", err)
		}
		fmt.Println(string(b))
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// scaled is a nominal count scaled to the requested run length, at least
// floor.
func scaled(nominal, seconds, floor int) int {
	n := (nominal*seconds + nominalSeconds/2) / nominalSeconds
	if n < floor {
		n = floor
	}
	return n
}

// cpuTime is the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size; Linux reports it in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024
}

// measurement is what a workload hands back: the end-to-end metrics, the
// per-layer metrics (traced runs only) and free-form facts for the log.
type measurement struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	notes    map[string]any
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	started  time.Time
}

// roundsDeadline is when a run stops starting rounds.
func (c runConfig) roundsDeadline() time.Time {
	reserve := closingReserve
	if c.trace {
		reserve = tracedReserve
	}
	return c.started.Add(time.Duration(c.seconds)*time.Second - reserve)
}

var workloads = map[string]func(runConfig, *account) (measurement, error){
	"live_pingpong":    func(c runConfig, a *account) (measurement, error) { return runLive(&pingpongSpec, c, a) },
	"live_bulk":        func(c runConfig, a *account) (measurement, error) { return runLive(&bulkSpec, c, a) },
	"live_fanin_lossy": func(c runConfig, a *account) (measurement, error) { return runLive(&faninLossySpec, c, a) },
	"sim_paper":        runSim,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	var c runConfig
	var trace, aa int
	var updateGolden bool
	flag.StringVar(&c.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames()))
	flag.Int64Var(&c.seed, "seed", 1, "seed for payloads and injected faults")
	flag.IntVar(&c.seconds, "seconds", nominalSeconds, "wall time of the run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run two alternating sets of this many runs per workload and print the comparison table")
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite golden_sim.json from this tree's simulator (run from the benchmark directory)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if c.seconds < 1 || c.seconds > 60 {
		fatalf("-seconds %d outside 1..60", c.seconds)
	}
	c.trace = trace != 0

	switch {
	case updateGolden:
		if err := writeGolden("golden_sim.json"); err != nil {
			fatalf("%v", err)
		}
		return
	case aa > 0:
		if err := runAA(aa, c.seconds); err != nil {
			fatalf("%v", err)
		}
		return
	}

	run, ok := workloads[c.workload]
	if !ok {
		fatalf("unknown workload %q; have %v", c.workload, workloadNames())
	}
	acct := &account{}
	go acct.watch()
	c.started = time.Now()
	m, err := run(c, acct)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", c.workload, err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d seconds=%d trace=%v wall=%.1fs nproc=%d gomaxprocs=%d %s\n",
		c.workload, c.seed, c.seconds, c.trace, time.Since(c.started).Seconds(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for name, v := range m.endToEnd {
		fmt.Fprintf(os.Stderr, "benchmark:   e2e.%s = %v\n", name, v)
	}
	logNotes(m.notes)

	res := result{Attempted: max(acct.attempted.Load(), 1), Failed: acct.failed()}
	if err == nil {
		if c.trace {
			res.Metrics, err = withUnits(perLayerMetrics, m.perLayer)
		} else {
			res.Metrics, err = withUnits(endToEndMetrics, m.endToEnd)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
	}
	if err != nil {
		res.Failed = max(res.Failed, 1)
		res.Metrics = map[string]metric{}
	}
	res.Correct = res.Failed == 0
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// logNotes prints a workload's side facts (sample counts, the other mode's
// metrics) to standard error, sorted.
func logNotes(notes map[string]any) {
	keys := make([]string, 0, len(notes))
	for k := range notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "benchmark:   %s = %v\n", k, notes[k])
	}
}

// finishTraced adds what every traced run reports beside its own layers (the
// unnormalised metrics and the reference, the leaf kernels, peak memory) and
// writes the span file.
func finishTraced(c runConfig, acct *account, tr *tracer, raw map[string]float64, m *measurement) error {
	for name, v := range raw {
		m.perLayer[name] = v
	}
	for name, v := range leafKernels(acct) {
		m.perLayer[name] = v
	}
	m.perLayer["proc.peak_rss_mb"] = peakRSSMB()
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	m.notes["span_file"] = path
	return nil
}
