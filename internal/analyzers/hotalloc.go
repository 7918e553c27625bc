package analyzers

import (
	"go/ast"
	"strings"
)

// HotAlloc guards functions annotated `//whale:hotpath` (a line in the
// function's doc comment) against per-tuple costs that do not belong on
// the partitioning fast path: fmt.Sprintf (allocates and reflects),
// a direct clock read — time.Now, time.Since or time.Until (a vDSO call per
// tuple adds up at millions of tuples/s; the sampled reads go through
// metrics.Clock and metrics.Since, behind a sampling decision), map
// allocation (make(map...) or a map composite literal), and byte-slice
// allocation (make([]byte, ...) — the hot path reuses pooled or
// caller-provided buffers; a fresh slice per tuple is a copy in disguise).
// Error paths are exempt by construction — fmt.Errorf is deliberately not
// flagged, since an error exits the hot path anyway.
//
// Nested function literals inherit the annotation: a closure built inside
// a hotpath function runs on the same path.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags fmt.Sprintf, time.Now/Since/Until, map allocation, and make([]byte, ...) inside //whale:hotpath functions",
	Run:  runHotAlloc,
}

// hotpathDirective marks a function as hot-path in its doc comment.
const hotpathDirective = "//whale:hotpath"

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			checkHotBody(pass, fd.Name.Name, fd.Body)
		}
	}
}

// clockReads are the package time functions that read the clock.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// isByteElem reports whether e names the byte element type ([]byte or its
// alias []uint8).
func isByteElem(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (id.Name == "byte" || id.Name == "uint8")
}

func checkHotBody(pass *Pass, fname string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := callee(pass.Info, x); fn != nil {
				switch {
				case funcPkgPath(fn) == "fmt" && fn.Name() == "Sprintf":
					pass.Reportf(x.Pos(), "fmt.Sprintf in hot path %s: preformat or use strconv", fname)
				case funcPkgPath(fn) == "time" && clockReads[fn.Name()]:
					pass.Reportf(x.Pos(), "time.%s in hot path %s: hoist the timestamp out of the per-tuple path or sample it (metrics.Clock)", fn.Name(), fname)
				}
			}
			// make(map[K]V) / make([]byte, ...): make is a builtin, so
			// callee is nil.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
				switch t := x.Args[0].(type) {
				case *ast.MapType:
					pass.Reportf(x.Pos(), "map allocation in hot path %s: preallocate or use a slice", fname)
				case *ast.ArrayType:
					if t.Len == nil && isByteElem(t.Elt) {
						pass.Reportf(x.Pos(), "make([]byte, ...) in hot path %s: reuse a pooled or caller-provided buffer", fname)
					}
				}
			}
		case *ast.CompositeLit:
			if _, isMap := x.Type.(*ast.MapType); isMap {
				pass.Reportf(x.Pos(), "map literal in hot path %s: preallocate or use a slice", fname)
			}
		}
		return true
	})
}
