// Package metricname enforces the telemetry registry's naming
// discipline at compile time.
//
// The telemetry layer (PR 1) identifies every metric family by name and
// every series by its label set; the exporters assume Prometheus
// conventions (snake_case names, a small closed set of label keys).
// Two mistakes defeat it silently: a name assembled at runtime
// (fmt.Sprintf("clic_%s_total", peer)) explodes family cardinality one
// peer at a time, and a misspelled or non-snake-case name splits a
// series from its dashboard. metricname flags, at every registration
// call on a telemetry Registry (Counter, Gauge, GaugeFunc, Histogram,
// RegisterCounter, RegisterGauge, RegisterHistogram):
//
//   - a metric name that is not a compile-time constant string;
//   - a constant name that is not snake_case ([a-z0-9_], starting with
//     a letter);
//
// and, at every telemetry.L call or Label literal, a label key that is
// not a constant snake_case string. Label values stay free: they carry
// bounded per-node/per-NIC identity, which is the registry's job to
// hold.
//
// The same discipline covers structured log lines: the slog attr keys
// passed to (*slog.Logger).LogAttrs — the watchdog's verdict lines —
// must be constant snake_case, because log pipelines index on them the
// way dashboards index on label keys. Attr values stay free, like label
// values. (Flight point names, the other per-incident record, are
// checked by tracestage.)
package metricname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// Analyzer is the metricname pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "require constant snake_case telemetry metric names and label keys",
	Run:  run,
}

// registerMethods maps Registry method names to the index of their name
// argument.
var registerMethods = map[string]int{
	"Counter":           0,
	"Gauge":             0,
	"GaugeFunc":         0,
	"Histogram":         0,
	"RegisterCounter":   0,
	"RegisterGauge":     0,
	"RegisterHistogram": 0,
}

// logAttrsFirst is the index of LogAttrs's first attr argument, after
// (ctx, level, msg).
const logAttrsFirst = 3

var snakeRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				// A constructor that returns a Label (telemetry.L
				// itself) necessarily builds the literal from its
				// parameters; its call sites are where the constant
				// rule applies.
				if returnsLabelType(pass, node) {
					return false
				}
			case *ast.CallExpr:
				checkCall(pass, node)
			case *ast.CompositeLit:
				checkLabelLit(pass, node)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	var name string
	var recv ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = fun.X
	case *ast.Ident:
		name = fun.Name
	default:
		return
	}
	if argIdx, ok := registerMethods[name]; ok && recv != nil && receiverNamed(pass, recv, "Registry") {
		if argIdx < len(call.Args) {
			checkNameArg(pass, call.Args[argIdx], "metric name", name)
		}
		return
	}
	if name == "LogAttrs" && recv != nil && receiverNamed(pass, recv, "Logger") && len(call.Args) > logAttrsFirst {
		// Each trailing argument is a slog attr; its constructor's
		// first argument is the key (slog.String("peer", ...)).
		for _, arg := range call.Args[logAttrsFirst:] {
			if ac, ok := arg.(*ast.CallExpr); ok && returnsNamed(pass, ac, "Attr") && len(ac.Args) >= 1 {
				checkNameArg(pass, ac.Args[0], "attr key", name)
			}
		}
		return
	}
	// telemetry.L(key, value) — or any L constructor returning a Label.
	if name == "L" && returnsNamed(pass, call, "Label") && len(call.Args) >= 1 {
		checkNameArg(pass, call.Args[0], "label key", "L")
	}
}

// returnsLabelType reports whether fn declares a result of a named type
// called Label.
func returnsLabelType(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, field := range fn.Type.Results.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok {
			if named, ok := derefNamed(tv.Type); ok && named.Obj().Name() == "Label" {
				return true
			}
		}
	}
	return false
}

// checkLabelLit validates Label{Key: ..., Value: ...} literals.
func checkLabelLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	named, ok := derefNamed(tv.Type)
	if !ok || named.Obj().Name() != "Label" {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Key" {
				checkNameArg(pass, kv.Value, "label key", "Label literal")
			}
			continue
		}
		if i == 0 { // positional: Label{"key", "value"}
			checkNameArg(pass, elt, "label key", "Label literal")
		}
	}
}

// checkNameArg requires expr to be a constant snake_case string.
func checkNameArg(pass *analysis.Pass, expr ast.Expr, what, site string) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return
	}
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(expr.Pos(),
			"%s passed to %s must be a compile-time constant: a dynamic %s creates one metric family per value (unbounded cardinality, the per-peer leak metricname exists to stop)",
			what, site, what)
		return
	}
	s := constant.StringVal(tv.Value)
	if !snakeRe.MatchString(s) {
		pass.Reportf(expr.Pos(),
			"%s %q passed to %s is not snake_case: exporters assume Prometheus conventions ([a-z0-9_], starting with a letter)",
			what, s, site)
	}
}

// receiverNamed reports whether expr's type (through pointers) is a
// named type called name.
func receiverNamed(pass *analysis.Pass, expr ast.Expr, name string) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	named, ok := derefNamed(tv.Type)
	return ok && named.Obj().Name() == name
}

// returnsNamed reports whether the call's result type is a named type
// with the given name (Label for telemetry.L, Attr for slog attrs).
func returnsNamed(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	tv, ok := pass.TypesInfo.Types[call]
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
