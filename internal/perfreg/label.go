package perfreg

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync/atomic"

	"repro/internal/telemetry"
)

// LabelKey is the pprof goroutine-label key under which every datapath
// stage tags itself. Attribute groups samples by this key; `go tool
// pprof -tagfocus clic_stage=module-send` slices a profile the same way.
const LabelKey = "clic_stage"

// Label-only stage names for datapath work that owns no flight-recorder
// span: the timer callbacks. Everything else labels itself with the
// trace.Span* constant of the stage it implements, so profile tables
// and Fig. 7 breakdowns speak one vocabulary.
const (
	StageRTOTimer = "rto-timer"  // RTO repair timer callback (head + newest frame)
	StageDriver   = "sim-driver" // sim tick loop driving the engine
)

// ExtraStages lists the label-only stages above in display order;
// Attribute appends them after trace.SpanOrder.
var ExtraStages = []string{StageRTOTimer, StageDriver}

// enabled gates every labeling call site. The hot paths test it with one
// atomic load and fall through to the unlabeled fast path when false, so
// a binary that never opts in pays no allocations and no pprof calls
// (AllocsPerRun-guarded in internal/live).
var enabled atomic.Bool

// Enable arms stage labeling. Call before the datapath goroutines start
// (flag parsing time); labels applied per-iteration pick it up
// immediately either way.
func Enable() { enabled.Store(true) }

// Disable disarms stage labeling. Test support: the live alloc guards
// require the disabled fast path, so tests that Enable must
// defer/Cleanup a Disable.
func Disable() { enabled.Store(false) }

// Enabled reports whether stage labeling is armed. Call sites gate on
// this BEFORE building the closure for Do so the disabled path performs
// zero allocations.
func Enabled() bool { return enabled.Load() }

// Do runs f with the calling goroutine labeled {clic_stage=stage} and
// restores ctx's label set afterwards. Pass the context returned by an
// enclosing DoCtx/LabelGoroutine (or context.Background() at the top of
// a call chain) so nested stages restore the enclosing stage rather
// than clearing it.
func Do(ctx context.Context, stage string, f func()) {
	pprof.Do(ctx, pprof.Labels(LabelKey, stage), func(context.Context) { f() })
}

// DoCtx is Do for call chains that re-label deeper down: f receives the
// labeled context to thread into nested Do calls.
func DoCtx(ctx context.Context, stage string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(LabelKey, stage), f)
}

// LabelGoroutine permanently tags the calling goroutine with
// {clic_stage=stage} and returns the labeled context for nested Do
// calls to restore to. For dedicated stage goroutines (ISR procs, the
// live rxLoop) this is a one-time cost at goroutine start instead of a
// per-iteration wrap.
func LabelGoroutine(ctx context.Context, stage string) context.Context {
	ctx = pprof.WithLabels(ctx, pprof.Labels(LabelKey, stage))
	pprof.SetGoroutineLabels(ctx)
	return ctx
}

// EnableRuntimeProfiles arms stage labels plus the runtime's contention
// profilers: mutex (1/fraction of contention events sampled) and block
// (events blocking >= rateNs sampled). This is the `-profile` flag of
// cliclive/clicsim; the profiles are then served by net/http/pprof on
// the debug mux.
func EnableRuntimeProfiles(mutexFraction int, blockRateNs int) {
	Enable()
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNs)
}

// RegisterMetrics exposes the profiling switch state on a telemetry
// registry, so a scrape of /metrics records whether the numbers it
// accompanies were taken with profiling (and its overhead) armed.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("perfreg_profiling_enabled",
		"1 when perfreg stage labeling is armed (the -profile flag), else 0.",
		func() float64 {
			if Enabled() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("perfreg_mutex_profile_fraction",
		"runtime.SetMutexProfileFraction currently in effect (0 = off).",
		func() float64 { return float64(runtime.SetMutexProfileFraction(-1)) })
}
