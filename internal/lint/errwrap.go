package lint

import (
	"go/ast"
)

// errwrapDirs are the packages implementing vfs.FileSystem whose
// exported operations promise *vfs.PathError (or nil) to callers —
// the race-safe public error API from the tracing PR. The in-memory
// model in internal/vfs is exempt: it is the behavioural oracle, and
// the equivalence tests compare error classes through errors.Is.
var errwrapDirs = []string{"internal/core", "internal/ffs"}

// vfsOps is the vfs.FileSystem method set plus the fsync extension —
// the operations whose errors cross the VFS boundary.
var vfsOps = map[string]bool{
	"Create":    true,
	"Mkdir":     true,
	"Write":     true,
	"Read":      true,
	"Stat":      true,
	"ReadDir":   true,
	"Remove":    true,
	"Rename":    true,
	"Link":      true,
	"Truncate":  true,
	"Sync":      true,
	"Unmount":   true,
	"FsyncFile": true,
}

// seamField is the name both file systems give their obs.OpCapture
// field: the op seam, whose End wraps with *vfs.PathError and emits the
// operation's trace span.
const seamField = "op"

// ErrWrapAnalyzer requires every exported VFS operation in the two
// file systems to return its error through the op seam — End on the
// receiver's seam field — or through vfs.WrapPathError directly.
// Returning a bare sentinel would leak an unwrapped error to callers —
// breaking errors.As(*vfs.PathError) — and would silently skip the
// operation's span, violating the every-op-is-traced invariant.
var ErrWrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "exported VFS ops in core/ffs must return errors via the op seam's End or vfs.WrapPathError",
	Run:  runErrWrap,
}

func runErrWrap(pkg *Package, _ *Index) []Diagnostic {
	if !pkg.inDirs(errwrapDirs...) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !vfsOps[fn.Name.Name] {
				continue
			}
			if !returnsError(fn) {
				continue
			}
			_, recvName := receiverOf(fn)
			// Closures inside the method return to the closure, not
			// to the VFS caller, so they are skipped.
			walkSkippingFuncLit(fn.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				if len(ret.Results) == 0 {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(ret.Pos()),
						Rule: "errwrap",
						Msg:  fn.Name.Name + " uses a naked return; return the error through the op seam's End or vfs.WrapPathError",
					})
					return true
				}
				errExpr := ret.Results[len(ret.Results)-1]
				if !wrapsError(errExpr, recvName) {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(errExpr.Pos()),
						Rule: "errwrap",
						Msg: fn.Name.Name + " returns a bare error; return it through the op seam's End or " +
							"vfs.WrapPathError so callers get a *vfs.PathError (and the op's span is recorded)",
					})
				}
				return true
			})
		}
	}
	return diags
}

// returnsError reports whether the function's last result is an error
// by its type name (syntactic; the VFS ops all spell it "error").
func returnsError(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	last, ok := res.List[len(res.List)-1].Type.(*ast.Ident)
	return ok && last.Name == "error"
}

// wrapsError reports whether the returned error expression is one of
// the sanctioned forms: nil, recv.op.End(...), or a call to
// vfs.WrapPathError. A method that merely happens to be called End —
// on the receiver itself, or on another field — does not qualify.
func wrapsError(e ast.Expr, recvName string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "WrapPathError" {
				return true
			}
			seam, ok := fun.X.(*ast.SelectorExpr)
			if !ok || fun.Sel.Name != "End" || seam.Sel.Name != seamField {
				return false
			}
			recv, ok := seam.X.(*ast.Ident)
			return ok && recv.Name == recvName
		case *ast.Ident:
			return fun.Name == "WrapPathError"
		}
	}
	return false
}
