// Package analyzers implements whalevet, Whale's project-specific static
// analysis suite. Each analyzer machine-checks one concurrency or
// performance invariant the compiler cannot see:
//
//	lockheld   — no blocking operation (channel op, time.Sleep, Wait,
//	             RDMA verb post) while a sync.Mutex/RWMutex is held
//	gospawn    — no bare `go` statement in library packages unless the
//	             goroutine is tracked by a sync.WaitGroup
//	metricname — obs/metrics registrations use literal, lowercase,
//	             dot-hierarchical names (the PR 1 registry convention)
//	verberr    — no silently discarded error from internal/rdma verbs or
//	             internal/transport calls
//	hotalloc   — no fmt.Sprintf / time.Now/Since/Until / map or []byte allocation
//	             inside functions annotated `//whale:hotpath`
//
// On top of the syntactic passes, a CFG/dataflow layer (cfg.go,
// dataflow.go) supports four path-aware analyzers:
//
//	bufown        — every acquired pooled buffer/encoder reaches a
//	                balanced release, retain, or annotated transfer on
//	                every exit path (//whale:acquires, //whale:owns,
//	                //whale:transfers)
//	lockorder     — whole-repo lock-acquisition graph: cycles are
//	                potential deadlocks, and //whale:lockrank commits a
//	                canonical acquisition order for ranked mutexes
//	creditbalance — every //whale:charged delivery-unit charge reaches a
//	                //whale:grants call or a //whale:credit-terminal exit
//	chanprotocol  — no channel send or second close on a path where the
//	                channel was already closed
//
// Findings are suppressed per-site with an explanatory directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line (trailing) or the line directly above, or for
// a whole file with `//lint:file-ignore <analyzer> <reason>`. A directive
// without a reason is ignored, so every suppression documents itself. A
// directive that suppresses nothing is itself reported (staledirective), so
// suppressions cannot outlive the finding they waive.
//
// The suite is self-contained on the standard library (go/ast, go/types,
// and export data resolved through `go list -export`), mirroring the shape
// of the golang.org/x/tools go/analysis API without depending on it.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Per-package analyzers set Run, which
// inspects a single package through its Pass and reports findings via
// Pass.Reportf. Whole-program analyzers (lockorder, bufown's
// cross-package directive table) set RunProgram instead, which sees every
// loaded package at once; RunAnalyzers invokes it once per run.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the analyzer over one package. Nil for whole-program
	// analyzers.
	Run func(*Pass)
	// RunProgram executes the analyzer once over all loaded packages.
	// Diagnostics still pass through per-package suppression filtering.
	RunProgram func(pkgs []*Package, report func(Diagnostic))
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// IsMain reports whether the analyzed package is a command (package main).
// Some analyzers (gospawn) only apply to library packages.
func (p *Pass) IsMain() bool { return p.Pkg.Name() == "main" }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full whalevet suite in reporting order: the five
// syntactic passes from PR 2 plus the four CFG/dataflow analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		LockHeld, GoSpawn, MetricName, VerbErr, HotAlloc,
		BufOwn, LockOrder, CreditBalance, ChanProtocol,
	}
}

// ByName resolves a comma-separated analyzer list ("lockheld,verberr").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}

// StaleDirective is the name under which RunAnalyzers reports //lint:
// directives that suppress nothing. It is a framework check, not an entry
// in All(): it runs whenever the analyzer a directive names is part of the
// run, so a partial `-run lockheld` invocation never flags suppressions
// belonging to analyzers that did not execute.
const StaleDirective = "staledirective"

// RunAnalyzers applies every analyzer to every package, filters findings
// through the packages' //lint: directives, reports directives that
// suppressed nothing, and returns all diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, as []*Analyzer) []Diagnostic {
	var all []Diagnostic
	ranNames := map[string]bool{}
	for _, a := range as {
		ranNames[a.Name] = true
	}

	// Per-package suppression sets, kept so whole-program diagnostics and
	// the stale check can consult them after all analyzers ran.
	sups := make([]suppressionSet, len(pkgs))
	used := make([]map[int]bool, len(pkgs)) // suppression index -> used
	for i, pkg := range pkgs {
		sups[i] = collectSuppressions(pkg.Fset, pkg.Files)
		used[i] = map[int]bool{}
	}
	filter := func(pkgIdx int, d Diagnostic) bool {
		if idx, ok := sups[pkgIdx].suppresses(d); ok {
			used[pkgIdx][idx] = true
			return false
		}
		return true
	}
	// pkgForFile maps a diagnostic's file back to its package's
	// suppression set (whole-program analyzers report across packages).
	pkgForFile := map[string]int{}
	for i, pkg := range pkgs {
		for _, f := range pkg.Files {
			pkgForFile[pkg.Fset.Position(f.FileStart).Filename] = i
		}
	}

	for i, pkg := range pkgs {
		for _, a := range as {
			if a.Run == nil {
				continue
			}
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
			for _, d := range diags {
				if filter(i, d) {
					all = append(all, d)
				}
			}
		}
	}
	for _, a := range as {
		if a.RunProgram == nil {
			continue
		}
		var diags []Diagnostic
		a.RunProgram(pkgs, func(d Diagnostic) { diags = append(diags, d) })
		for _, d := range diags {
			if idx, ok := pkgForFile[d.Pos.Filename]; ok {
				if filter(idx, d) {
					all = append(all, d)
				}
			} else {
				all = append(all, d)
			}
		}
	}

	// Stale-suppression check: a directive naming an analyzer that ran but
	// matched no diagnostic is dead weight — either the code was fixed (drop
	// it) or the directive is on the wrong line (fix it). Either way it must
	// not linger as a silent waiver.
	for i := range pkgs {
		for j, sup := range sups[i] {
			if used[i][j] || !ranNames[sup.analyzer] {
				continue
			}
			d := Diagnostic{
				Analyzer: StaleDirective,
				Pos:      token.Position{Filename: sup.file, Line: sup.line, Column: 1},
				Message: fmt.Sprintf("//lint:%s %s suppresses no diagnostic; remove it or fix its placement",
					ignoreKind(sup), sup.analyzer),
			}
			if filter(i, d) {
				all = append(all, d)
			}
		}
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

func ignoreKind(s suppression) string {
	if s.fileWide {
		return "file-ignore"
	}
	return "ignore"
}

// --- shared type/AST helpers -----------------------------------------------

// callee resolves the *types.Func a call statically invokes: a package
// function, a qualified pkg.Func, or a method through a selection. Calls
// through function values return nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring f ("" for
// builtins/universe).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isNamed reports whether t (after pointer deref) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		if ptr, ok := t.(*types.Pointer); ok {
			n, ok = ptr.Elem().(*types.Named)
			if !ok {
				return false
			}
		} else {
			return false
		}
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// derefNamed unwraps pointers and returns the named type, or nil.
func derefNamed(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// recvPkgPath returns the import path of the package declaring the type a
// method call's receiver belongs to, or "" when call is not a method call.
func recvPkgPath(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok {
		return ""
	}
	n := derefNamed(s.Recv())
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// lastResultIsError reports whether f's final result is the error type.
func lastResultIsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// selectorName renders the call target for messages ("c.mu.Lock",
// "time.Sleep"), degrading gracefully for complex expressions.
func selectorName(call *ast.CallExpr) string {
	return exprText(call.Fun)
}

func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.CallExpr:
		return exprText(x.Fun) + "()"
	}
	return "<expr>"
}
