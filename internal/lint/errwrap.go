package lint

import (
	"go/ast"
)

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

// seamField is the name of the op seam field (vfs.Front's, core.FS's):
// the seam whose End wraps with *vfs.PathError and emits the
// operation's trace span.
const seamField = "op"

// ErrWrapAnalyzer requires every exported VFS operation on a type that
// holds the op seam to return its error through the seam — End on the
// receiver's seam field — or through vfs.WrapPathError directly.
// Returning a bare sentinel would leak an unwrapped error to callers —
// breaking errors.As(*vfs.PathError) — and would silently skip the
// operation's span, violating the every-op-is-traced invariant. The
// check follows the seam, not a package list, so it goes wherever the
// operations do; vfs.Model, the behavioural oracle, holds no seam and
// is exempt (the equivalence tests compare error classes through
// errors.Is).
var ErrWrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "exported VFS ops on a type holding the op seam must return errors via its End or vfs.WrapPathError",
	Run:  runErrWrap,
}

func runErrWrap(pkg *Package, _ *Index) []Diagnostic {
	holders := seamHolders(pkg)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !vfsOps[fn.Name.Name] {
				continue
			}
			recvType, recvName := receiverOf(fn)
			if !holders[recvType] || !returnsError(fn) {
				continue
			}
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

// seamHolders returns the package's struct types with a seamField
// field, by name.
func seamHolders(pkg *Package) map[string]bool {
	holders := make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							holders[ts.Name.Name] = holders[ts.Name.Name] || name.Name == seamField
						}
					}
				}
			}
			return true
		})
	}
	return holders
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
