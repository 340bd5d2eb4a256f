// Package tracestage enforces the flight recorder's stage vocabulary at
// compile time.
//
// The observability layer correlates two views of the same pipeline
// stage by its name string: the flight.Journal span/point events and the
// clic_stage_latency_ns{stage=...} histograms derived from them. The
// canonical names live as constants in repro/internal/trace
// (trace.SpanWire, trace.SpanModuleSend, ...); the Fig. 7 figures,
// clictrace's attribution and flight.Analysis.Breakdown key on them
// exactly. A stage
// name typed inline at one call site ("modul-send") silently forks a
// stage: the span records fine, but no aggregation, ordering
// (trace.SpanOrder), or stall detection ever sees it. tracestage flags,
// at every flight.Journal event call (Begin, End, Span, Point):
//
//   - a stage-name argument that is an ad-hoc string literal rather
//     than a named constant;
//   - a stage-name argument that is not a compile-time constant at all
//     (fmt.Sprintf, concatenation with a variable).
//
// Identifiers and selector expressions that resolve to string constants
// pass — that includes local aliases of the trace package's constants.
// A deliberately dynamic name carries //nolint:tracestage with a
// justification. Journal.Resource is
// exempt: its track argument names a hardware resource timeline, not a
// pipeline stage.
package tracestage

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the tracestage pass.
var Analyzer = &analysis.Analyzer{
	Name: "tracestage",
	Doc:  "require named constants for flight.Journal stage names",
	Run:  run,
}

// site describes one checked method: the receiver type it belongs to
// and the indices of its stage-name arguments.
type site struct {
	recv string
	args []int
}

// stageSites maps method names to the receiver type and stage-name
// argument positions to check. The Journal methods all take
// (node, frame, stage, ...).
var stageSites = map[string]site{
	"Begin": {recv: "Journal", args: []int{2}},
	"End":   {recv: "Journal", args: []int{2}},
	"Span":  {recv: "Journal", args: []int{2}},
	"Point": {recv: "Journal", args: []int{2}},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := stageSites[sel.Sel.Name]
	if !ok || !receiverNamed(pass, sel.X, s.recv) {
		return
	}
	for _, idx := range s.args {
		if idx < len(call.Args) {
			checkStageArg(pass, call.Args[idx], sel.Sel.Name)
		}
	}
}

// checkStageArg requires expr to be a named string constant: a bare
// literal forks the stage vocabulary, a dynamic expression defeats the
// aggregators entirely.
func checkStageArg(pass *analysis.Pass, expr ast.Expr, method string) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return
	}
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(expr.Pos(),
			"stage name passed to %s must be a named constant from repro/internal/trace: a dynamic name never matches SpanOrder, the latency histograms, or stall detection",
			method)
		return
	}
	if _, isLit := expr.(*ast.BasicLit); isLit {
		pass.Reportf(expr.Pos(),
			"stage name %s passed to %s is an ad-hoc literal: use the named constant from repro/internal/trace so every view of the pipeline agrees on the vocabulary",
			tv.Value.ExactString(), method)
	}
}

// receiverNamed reports whether expr's type (through pointers) is a
// named type called name. Name-only matching keeps the analyzer usable
// on its own testdata, which mimics the flight surface locally.
func receiverNamed(pass *analysis.Pass, expr ast.Expr, name string) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	named, ok := derefNamed(tv.Type)
	return ok && named.Obj().Name() == name
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
