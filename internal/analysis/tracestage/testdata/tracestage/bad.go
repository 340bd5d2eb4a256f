// Package tracestage seeds the stage-vocabulary bug class: ad-hoc and
// runtime-assembled stage names at flight call sites.
package tracestage

import "fmt"

// Journal mimics the repro/internal/flight surface.
type Journal struct{}

func (j *Journal) Begin(node string, frame uint64, stage string, at int64)        {}
func (j *Journal) End(node string, frame uint64, stage string, at int64)          {}
func (j *Journal) Span(node string, frame uint64, stage string, begin, end int64) {}
func (j *Journal) Point(node string, frame uint64, name string, at, arg int64)    {}
func (j *Journal) Resource(track string, begin, end int64)                        {}

// The named constant stands in for trace.SpanModuleSend et al.
const SpanModuleSend = "module-send"

func record(j *Journal, link string, at int64) {
	const alias = SpanModuleSend // a constant alias still resolves
	j.Begin("n0", 1, alias, at)
	j.Begin("n0", 1, SpanModuleSend, at)
	j.Begin("n0", 1, "modul-send", at) // want `stage name "modul-send" passed to Begin is an ad-hoc literal`
	j.End("n0", 1, link, at)           // want `stage name passed to End must be a named constant`
	j.End("n0", 1, "wire:"+link, at)   // want `stage name passed to End must be a named constant`
	j.End("n0", 1, "wire:"+link, at)   //nolint:tracestage // a deliberately dynamic name, justified
	j.Span("n0", 1, SpanModuleSend, at, at+1)
	j.Span("n0", 1, "rogue-span", at, at+1)            // want `stage name "rogue-span" passed to Span is an ad-hoc literal`
	j.Point("n0", 0, fmt.Sprintf("p:%s", link), at, 0) // want `stage name passed to Point must be a named constant`
	j.Point("n0", 0, "rogue-point", at, 0)             // want `stage name "rogue-point" passed to Point is an ad-hoc literal`
	j.Resource("cpu0", at, at+1)                       // resource tracks are not stage names
}
