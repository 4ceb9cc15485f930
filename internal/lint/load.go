package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list -export -deps -json` in dir over patterns and
// decodes the JSON stream. -export makes the go tool compile every listed
// package and record its export-data file, which is what lets the suite
// type-check targets from source while importing all dependencies
// (stdlib included) from compiled export data — fully offline, no
// golang.org/x/tools required.
func goList(dir string, patterns ...string) ([]listEntry, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decode: %w", patterns, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportImporter returns a types.Importer that reads gc export data from
// the files go list recorded.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Load resolves patterns (e.g. "./...") relative to dir — a directory
// inside a Go module — and returns the matched packages parsed and
// type-checked from source. Test files are not loaded: the suite checks
// the shipped tree, and tests legitimately reach for synchronous shortcuts
// the analyzers would otherwise flag.
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	var pkgs []*Package
	for _, e := range entries {
		if e.DepOnly || e.Standard || len(e.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(e.ImportPath, e.Dir, e.GoFiles, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// LoadFixture type-checks one analysistest-style fixture package: the .go
// files under dir, importing stdlib only, with the package path forced to
// importPath so analyzers scope-match fixture trees the same way they
// match the real one. moduleDir anchors the `go list` that locates stdlib
// export data.
func LoadFixture(moduleDir, dir, importPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("lint: fixture %s: no .go files", dir)
	}
	sort.Strings(matches)
	fset := token.NewFileSet()
	imported := make(map[string]bool)
	var files []*ast.File
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			imported[importPathOf(imp)] = true
		}
		files = append(files, f)
	}
	var paths []string
	for p := range imported {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports := make(map[string]string)
	if len(paths) > 0 {
		entries, err := goList(moduleDir, paths...)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
	}
	return checkFiles(importPath, fset, files, exports)
}

func importPathOf(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	return p[1 : len(p)-1] // strip quotes
}

func checkPackage(importPath, dir string, goFiles []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := checkFiles(importPath, fset, files, exports)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}

func checkFiles(importPath string, fset *token.FileSet, files []*ast.File, exports map[string]string) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: exportImporter(fset, exports)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
