package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// storeCapNames are the optional store capabilities from the
// pluggable-backend work: asserting them is how code discovers what a
// backend can do, and scattering those probes makes backend behavior
// diverge silently. Probes are confined to the disk package itself
// and the conformance/crash harness.
var storeCapNames = map[string]bool{
	"Snapshotter": true,
}

// storeCapDirs are the approved probe sites.
var storeCapDirs = []string{"internal/disk", "internal/fstest"}

// storeCtorNames are the store constructors whose results own an OS
// resource (file descriptor, mmap region) or at minimum the
// closed-state contract: every result must reach a Close.
var storeCtorNames = map[string]bool{
	"OpenStore":     true,
	"OpenFileStore": true,
	"OpenMmapStore": true,
}

// StoreCapAnalyzer enforces the store resource discipline: capability
// assertions like .(disk.Snapshotter) only at approved sites, and
// every store-constructor result must reach a Close in its function
// or escape to an owner (returned, passed on, stored). The Close
// check is flow-light — it looks for a Close selector or an escape
// anywhere after the open, not per-path — which catches the real
// failure mode (a test that opens and forgets) without a dataflow
// engine.
var StoreCapAnalyzer = &Analyzer{
	Name: "storecap",
	Doc:  "store capability probes stay at approved sites; store handles reach Close",
	Run:  runStoreCap,
}

func runStoreCap(pkg *Package, _ *Index) []Diagnostic {
	var diags []Diagnostic
	capApproved := pkg.inDirs(storeCapDirs...)
	for _, f := range pkg.Files {
		if !capApproved {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok || ta.Type == nil {
					return true
				}
				if name := capTypeName(ta.Type); name != "" {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(ta.Pos()),
						Rule: "storecap",
						Msg: "capability assertion .(" + name + ") outside the approved " +
							"probe sites (internal/disk, internal/fstest); " +
							"route capability probes through the conformance harness",
					})
				}
				return true
			})
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			diags = append(diags, checkStoreCloses(pkg, fn)...)
		}
	}
	return diags
}

// capTypeName returns the asserted capability name when the type
// expression names one, else "".
func capTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		if storeCapNames[t.Name] {
			return t.Name
		}
	case *ast.SelectorExpr:
		if storeCapNames[t.Sel.Name] {
			if id, ok := t.X.(*ast.Ident); ok {
				return id.Name + "." + t.Sel.Name
			}
			return t.Sel.Name
		}
	}
	return ""
}

// checkStoreCloses finds store-constructor calls in the function and
// verifies each bound result reaches a Close or escapes.
func checkStoreCloses(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	walkSkippingFuncLit(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		ctor := storeCtorName(call)
		if ctor == "" {
			return true
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			// `if _, err := OpenStore(bad); err == nil { fail }` is
			// the expected-failure probe shape: nothing to close on
			// the asserted path.
			if !expectedFailureProbe(fn, asg) {
				diags = append(diags, Diagnostic{
					Pos:  pkg.Fset.Position(call.Pos()),
					Rule: "storecap",
					Msg: ctor + " result discarded; bind the store and close it " +
						"(or probe the error with `if _, err := ...; err == nil`)",
				})
			}
			return true
		}
		if !reachesClose(fn, id.Name, asg.End()) {
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(call.Pos()),
				Rule: "storecap",
				Msg: ctor + " result " + id.Name + " never reaches Close in this " +
					"function and never escapes; defer " + id.Name + ".Close()",
			})
		}
		return true
	})
	return diags
}

// storeCtorName returns the called store constructor's display name,
// or "".
func storeCtorName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if storeCtorNames[fun.Name] {
			return fun.Name
		}
	case *ast.SelectorExpr:
		if storeCtorNames[fun.Sel.Name] {
			if id, ok := fun.X.(*ast.Ident); ok {
				return id.Name + "." + fun.Sel.Name
			}
			return fun.Sel.Name
		}
	}
	return ""
}

// expectedFailureProbe reports whether the assign is the init of an
// if statement whose condition checks err == nil — the shape tests
// use to assert a constructor must fail.
func expectedFailureProbe(fn *ast.FuncDecl, asg *ast.AssignStmt) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Init != asg {
			return true
		}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if be, ok := c.(*ast.BinaryExpr); ok && be.Op == token.EQL {
				if isNilIdent(be.X) || isNilIdent(be.Y) {
					found = true
				}
			}
			return true
		})
		return true
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// reachesClose reports whether, after the binding, the named handle
// either has Close invoked on it (directly, deferred, or inside a
// closure such as t.Cleanup) or escapes the function: returned,
// passed as an argument, re-assigned, or stored into a composite
// literal. An escaped handle has an owner; a handle that is only ever
// a method receiver and never closed is a leak.
func reachesClose(fn *ast.FuncDecl, name string, after token.Pos) bool {
	ok := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ok || n == nil || n.End() <= after && !spans(n, after) {
			return !ok
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, isID := n.X.(*ast.Ident); isID && id.Name == name &&
				(n.Sel.Name == "Close" || strings.HasPrefix(n.Sel.Name, "Close")) &&
				n.Pos() > after {
				ok = true
			}
		case *ast.CallExpr:
			if n.Pos() > after && callTakesIdent(n, name) {
				ok = true
			}
		case *ast.ReturnStmt:
			if n.Pos() > after && mentionsIdent(n, name) {
				ok = true
			}
		case *ast.AssignStmt:
			if n.Pos() > after {
				for _, rhs := range n.Rhs {
					if mentionsIdent(rhs, name) {
						ok = true
					}
				}
			}
		case *ast.CompositeLit:
			if n.Pos() > after && mentionsIdent(n, name) {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// spans reports whether the node's extent contains the position (so
// enclosing statements are still descended into).
func spans(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// mentionsIdent reports whether the subtree uses the named
// identifier.
func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
