// Package perfreg attributes CPU time to datapath stages: it turns a
// profile from an undifferentiated blob into a per-stage table.
//
// The live TX/RX/timer paths and the sim driver loops tag themselves
// with runtime/pprof labels named after the flight recorder's span
// stages (internal/trace SpanOrder) when Enable has been called
// (cliclive/clicsim -profile, clicbench -cpuprofile / profile).
// Attribute folds any pprof profile — CPU, mutex, block — into a
// per-stage table, so "where do the microseconds go" (the paper's Fig. 7
// question) can be asked of a production profile, not just the
// simulator. The disabled path is one atomic load on the hot paths, 0
// allocs, AllocsPerRun-guarded in internal/live.
//
// Measuring whether a change made the datapath faster or slower is not
// this package's job: that is benchmark/run.sh, the repo's one
// yardstick.
package perfreg
