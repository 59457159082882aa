package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// Index is the shared package-index layer built once per Run and
// handed to every analyzer: a function table over all loaded
// packages, a lightweight intra-module call graph, the set of
// map-typed names per package, and two derived facts the
// determinism analyzers key off — which packages are simulation
// packages (their import closure reaches internal/sim) and which
// functions are reachable from a deterministic-output writer.
//
// Everything here is syntactic. Imports are resolved by matching an
// import path against the loaded directories (suffix match, so the
// index works for the real module and for the testdata mini-modules,
// which have no go.mod). Method calls resolve by name to every
// candidate in the packages the calling file can see — an
// over-approximation, which for reachability is the safe direction.
type Index struct {
	pkgs  []*Package
	byDir map[string]*Package

	// funcs lists every function/method declaration keyed by bare
	// name (methods drop the receiver type).
	funcs  map[string][]*FuncInfo
	funcOf map[*ast.FuncDecl]*FuncInfo

	// mapNames holds, per package, the names declared with a map
	// type anywhere in the package: struct fields, variables,
	// parameters, and make/composite-literal assignments.
	mapNames map[*Package]map[string]bool

	// simDirs is the derived deterministic scope: every loaded
	// directory outside cmd/ whose module-internal import closure
	// includes internal/sim.
	simDirs map[string]bool

	// reachable marks functions reachable from a deterministic-output
	// root over the call graph.
	reachable map[*FuncInfo]bool

	// resolveCache memoizes import-path resolution; the same stdlib
	// and module paths recur in every file.
	resolveCache map[string]string
}

// FuncInfo is one function or method declaration in the index.
type FuncInfo struct {
	Pkg  *Package
	File *File
	Decl *ast.FuncDecl
	// imports are the module-internal directories the declaring file
	// imports — the candidate targets for method-name resolution.
	imports []string
	// root marks a deterministic-output writer (see isRoot).
	root bool
}

// Name returns the bare declared name (receiver type dropped).
func (fi *FuncInfo) Name() string { return fi.Decl.Name.Name }

// simDirName is the directory anchoring the deterministic scope: a
// package is simulation code exactly when its imports reach the
// simulated clock.
const simDirName = "internal/sim"

// NewIndex builds the index over the loaded packages.
func NewIndex(pkgs []*Package) *Index {
	ix := &Index{
		pkgs:         pkgs,
		byDir:        make(map[string]*Package, len(pkgs)),
		funcs:        make(map[string][]*FuncInfo),
		funcOf:       make(map[*ast.FuncDecl]*FuncInfo),
		mapNames:     make(map[*Package]map[string]bool, len(pkgs)),
		simDirs:      make(map[string]bool),
		reachable:    make(map[*FuncInfo]bool),
		resolveCache: make(map[string]string),
	}
	for _, pkg := range pkgs {
		ix.byDir[pkg.RelDir] = pkg
	}
	for _, pkg := range pkgs {
		ix.indexPackage(pkg)
	}
	ix.deriveSimScope()
	ix.markReachable()
	return ix
}

// resolveImport maps an import path to a loaded directory, or "" when
// the path is not module-internal. The module prefix is unknown (the
// testdata mini-modules carry no go.mod), so the path is matched by
// suffix against the loaded directories, longest directory first; a
// path equal to a bare prefix seen elsewhere resolves to the root
// package.
func (ix *Index) resolveImport(path string) string {
	if dir, ok := ix.resolveCache[path]; ok {
		return dir
	}
	dir := ix.resolveImportUncached(path)
	ix.resolveCache[path] = dir
	return dir
}

func (ix *Index) resolveImportUncached(path string) string {
	best := ""
	for _, p := range ix.pkgs {
		dir := p.RelDir
		if dir == "." {
			continue
		}
		if path == dir || strings.HasSuffix(path, "/"+dir) {
			if len(dir) > len(best) {
				best = dir
			}
		}
	}
	if best != "" {
		return best
	}
	// A single-segment path that other files extend into resolvable
	// module paths ("lfs" next to "lfs/internal/sim") is the root
	// package.
	if _, ok := ix.byDir["."]; ok && !strings.Contains(path, "/") {
		for _, p := range ix.pkgs {
			if p.RelDir != "." && ix.seenImport(path+"/"+p.RelDir) {
				return "."
			}
		}
	}
	return ""
}

// seenImport reports whether any loaded file imports exactly path.
func (ix *Index) seenImport(path string) bool {
	for _, pkg := range ix.pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.AST.Imports {
				if strings.Trim(imp.Path.Value, `"`) == path {
					return true
				}
			}
		}
	}
	return false
}

// indexPackage records the package's functions, imports, and
// map-typed names. A name also declared with an evident non-map type
// somewhere in the package is ambiguous and dropped: without type
// resolution, a slice named like a map elsewhere ([]blockRef refs in
// one file, map[Ino]int refs in another) would otherwise flag slice
// loops.
func (ix *Index) indexPackage(pkg *Package) {
	names := make(map[string]bool)
	nonMap := make(map[string]bool)
	ix.mapNames[pkg] = names
	for _, f := range pkg.Files {
		var imports []string
		for _, imp := range f.AST.Imports {
			if dir := ix.resolveImport(strings.Trim(imp.Path.Value, `"`)); dir != "" {
				imports = append(imports, dir)
			}
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fi := &FuncInfo{Pkg: pkg, File: f, Decl: fn, imports: imports}
			fi.root = isRoot(pkg, f, fn)
			ix.funcs[fn.Name.Name] = append(ix.funcs[fn.Name.Name], fi)
			ix.funcOf[fn] = fi
		}
		// Map-typed names: struct fields, var/param/result
		// declarations, and := bindings of make(map...) or map
		// literals.
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if n.Type != nil {
					record(names, nonMap, isMapType(n.Type), n.Names)
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					record(names, nonMap, isMapType(n.Type), n.Names)
				}
				for i, v := range n.Values {
					if i >= len(n.Names) {
						break
					}
					if isMap, known := classifyExpr(v); known {
						record(names, nonMap, isMap, n.Names[i:i+1])
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					isMap, known := classifyExpr(rhs)
					if !known {
						continue
					}
					name := ""
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						name = id.Name
					} else if sel, ok := n.Lhs[i].(*ast.SelectorExpr); ok {
						name = sel.Sel.Name
					}
					if name == "" {
						continue
					}
					if isMap {
						names[name] = true
					} else {
						nonMap[name] = true
					}
				}
			}
			return true
		})
	}
	for name := range nonMap {
		delete(names, name)
	}
}

// record files the names under the map or non-map set.
func record(names, nonMap map[string]bool, isMap bool, ids []*ast.Ident) {
	for _, id := range ids {
		if isMap {
			names[id.Name] = true
		} else {
			nonMap[id.Name] = true
		}
	}
}

// isMapType reports whether the type expression is a map type.
func isMapType(t ast.Expr) bool {
	_, ok := t.(*ast.MapType)
	return ok
}

// classifyExpr reports whether the expression's type is evident
// (make call or typed composite literal) and, if so, whether it is a
// map.
func classifyExpr(e ast.Expr) (isMap, known bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if ok && id.Name == "make" && len(e.Args) > 0 {
			return isMapType(e.Args[0]), true
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return isMapType(e.Type), true
		}
	}
	return false, false
}

// IsMapName reports whether name is declared with a map type anywhere
// in the package. Without type resolution two declarations sharing a
// name can alias (a slice field and a map field); the escape hatch
// covers that unlikely false positive.
func (ix *Index) IsMapName(pkg *Package, name string) bool {
	return ix.mapNames[pkg][name]
}

// deriveSimScope computes the deterministic package scope from the
// import graph instead of a hardcoded directory list: every package
// outside cmd/ whose module-internal import closure reaches
// internal/sim runs on the simulated clock and is held to the
// determinism rules. cmd/ is excluded deliberately — the tools time
// wall-clock benchmarks and render output for humans.
func (ix *Index) deriveSimScope() {
	imports := make(map[string][]string, len(ix.pkgs))
	for _, pkg := range ix.pkgs {
		seen := make(map[string]bool)
		for _, f := range pkg.Files {
			for _, imp := range f.AST.Imports {
				if dir := ix.resolveImport(strings.Trim(imp.Path.Value, `"`)); dir != "" && !seen[dir] {
					seen[dir] = true
					imports[pkg.RelDir] = append(imports[pkg.RelDir], dir)
				}
			}
		}
	}
	var reaches func(dir string, visiting map[string]bool) bool
	memo := make(map[string]bool)
	reaches = func(dir string, visiting map[string]bool) bool {
		if dir == simDirName {
			return true
		}
		if v, ok := memo[dir]; ok {
			return v
		}
		if visiting[dir] {
			return false
		}
		visiting[dir] = true
		out := false
		for _, dep := range imports[dir] {
			if reaches(dep, visiting) {
				out = true
				break
			}
		}
		delete(visiting, dir)
		memo[dir] = out
		return out
	}
	for _, pkg := range ix.pkgs {
		if pkg.RelDir == "cmd" || strings.HasPrefix(pkg.RelDir, "cmd/") {
			continue
		}
		if reaches(pkg.RelDir, make(map[string]bool)) {
			ix.simDirs[pkg.RelDir] = true
		}
	}
}

// InSimScope reports whether the package is simulation code: its
// import closure reaches internal/sim and it is not a cmd/ tool.
func (ix *Index) InSimScope(pkg *Package) bool { return ix.simDirs[pkg.RelDir] }

// SimDirs returns the derived deterministic scope, sorted, for tests
// and the -rules listing.
func (ix *Index) SimDirs() []string {
	out := make([]string, 0, len(ix.simDirs))
	for d := range ix.simDirs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// isRoot classifies deterministic-output writers, the reachability
// roots: functions that emit bytes whose exact form is promised to be
// reproducible — JSON/JSONL encoders (metrics, traces, benchjson),
// on-disk encoders (checkpoint, summary, layout), tool entry points
// (their stdout is diffed and eyeballed), and test functions (they
// produce and compare the golden files).
func isRoot(pkg *Package, f *File, fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if name == "WriteJSONL" || strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "encode") {
		return true
	}
	if name == "main" && pkg.Name == "main" {
		return true
	}
	for _, p := range [4]string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	if fn.Body == nil {
		return false
	}
	jsonName := importName(f.AST, "encoding/json")
	if jsonName == "" {
		return false
	}
	root := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !isPkgIdent(id, jsonName) {
			return true
		}
		switch sel.Sel.Name {
		case "Marshal", "MarshalIndent", "NewEncoder":
			root = true
		}
		return true
	})
	return root
}

// markReachable BFS-walks the call graph from every root. Edges
// resolve syntactically: a bare identifier to the same package's
// function of that name, pkg.Name through the file's import table,
// and a method name to every same-named method in the packages the
// calling file can see (same package plus its module imports).
func (ix *Index) markReachable() {
	// Seed the queue in sorted-name order so the index itself honors
	// the maporder rule (the reachable set is order-independent, but
	// the analyzers cannot know that).
	names := make([]string, 0, len(ix.funcs))
	for name := range ix.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var queue []*FuncInfo
	for _, name := range names {
		for _, fi := range ix.funcs[name] {
			if fi.root && !ix.reachable[fi] {
				ix.reachable[fi] = true
				queue = append(queue, fi)
			}
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range ix.callees(fi) {
			if !ix.reachable[callee] {
				ix.reachable[callee] = true
				queue = append(queue, callee)
			}
		}
	}
}

// callees returns the functions fi may invoke (or reference — a
// function handed off as a value runs eventually).
func (ix *Index) callees(fi *FuncInfo) []*FuncInfo {
	if fi.Decl.Body == nil {
		return nil
	}
	visible := make(map[string]bool, len(fi.imports)+1)
	visible[fi.Pkg.RelDir] = true
	for _, d := range fi.imports {
		visible[d] = true
	}
	var out []*FuncInfo
	seen := make(map[*FuncInfo]bool)
	add := func(cand *FuncInfo) {
		if cand != nil && !seen[cand] {
			seen[cand] = true
			out = append(out, cand)
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			// Reference to a same-package top-level function
			// (direct call or function value).
			for _, cand := range ix.funcs[n.Name] {
				if cand.Pkg == fi.Pkg && cand.Decl.Recv == nil {
					add(cand)
				}
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil {
				// Possibly pkg.Func through the import table.
				if dir := ix.importDirFor(fi.File, id.Name); dir != "" {
					for _, cand := range ix.funcs[n.Sel.Name] {
						if cand.Pkg.RelDir == dir && cand.Decl.Recv == nil {
							add(cand)
						}
					}
					return true
				}
			}
			// Method (or field holding a function) on some value:
			// resolve by name to every candidate the file can see.
			for _, cand := range ix.funcs[n.Sel.Name] {
				if visible[cand.Pkg.RelDir] {
					add(cand)
				}
			}
		}
		return true
	})
	return out
}

// importDirFor resolves a package-qualifier identifier in the file to
// a loaded directory, or "".
func (ix *Index) importDirFor(f *File, name string) string {
	for _, imp := range f.AST.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		} else {
			local = path
			if i := strings.LastIndex(path, "/"); i >= 0 {
				local = path[i+1:]
			}
		}
		if local != name {
			continue
		}
		return ix.resolveImport(path)
	}
	return ""
}

// Reachable reports whether the function declaration is reachable
// from a deterministic-output writer (see isRoot). Unknown
// declarations report false.
func (ix *Index) Reachable(fn *ast.FuncDecl) bool {
	fi, ok := ix.funcOf[fn]
	return ok && ix.reachable[fi]
}
