// Package lint is the repository's static-analysis framework: a
// self-contained, stdlib-only analogue of golang.org/x/tools/go/analysis
// (which this offline build cannot vendor). It defines the
// Analyzer/Pass/Diagnostic vocabulary and the runner that applies a suite
// of analyzers to type-checked packages.
//
// The two analyzers check what no golden or equivalence test can see,
// because neither changes a report (see README "Invariants & static
// analysis"):
//
//   - locklint — no network calls while a mutex is held
//   - ctxlint  — exported I/O functions thread context.Context
//
// TestSplintTreeClean runs both over the module inside go test ./...; the
// suite has no exemptions, so a finding is fixed, not annotated.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "locklint").
	Name string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the source tree.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics in file/line order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Locklint, Ctxlint}
}

// ---- shared type helpers used by the analyzers ----

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function, method, or qualified selector), or nil for
// calls through function-typed variables, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring f, or "".
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// firstParamIsContext reports whether sig's first parameter is a
// context.Context — the marker the suite uses for "ctx-aware, may block".
func firstParamIsContext(sig *types.Signature) bool {
	return sig != nil && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// recvTypeName returns the bare type name of a method's receiver
// (dereferencing one pointer), or "" for non-methods.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pkgPathHasSegment reports whether any "/"-separated segment of path
// equals one of names — how analyzers scope themselves to package
// families (internal/rpc, internal/cluster, fixture dirs) without hardcoding
// the module prefix.
func pkgPathHasSegment(path string, names map[string]bool) bool {
	for _, seg := range strings.Split(path, "/") {
		if names[seg] {
			return true
		}
	}
	return false
}
