// Package linttest is the lint suite's analysistest analogue: it loads a
// fixture package from a testdata tree, runs one analyzer over it, and
// asserts the produced diagnostics against "want" comments in the fixture
// source.
//
// Expectations use the analysistest comment convention:
//
//	s := f()            // want "regexp"
//	g(s)                // want "first" "second"
//
// Each quoted string is a regexp that must match the message of exactly
// one diagnostic reported on that line; diagnostics without a matching
// want, and wants without a matching diagnostic, fail the test.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"switchpointer/internal/lint"
)

// wantRE pulls the quoted regexps out of a `// want "..." "..."` comment.
var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads the fixture package at testdata/src/<pkgRel> (relative to the
// calling test's directory), applies the analyzer, and checks every
// diagnostic against the fixture's want comments. The fixture's package
// path is pkgRel itself, so analyzers that scope by path segment (e.g.
// ctxlint's service-plane set) see fixture trees the way they see the real
// one.
func Run(t *testing.T, a *lint.Analyzer, pkgRel string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgRel))
	moduleRoot, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadFixture(moduleRoot, dir, pkgRel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgRel, err)
	}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgRel, err)
	}

	wants := collectWants(t, dir)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic: %s:%d expected message matching %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			wm := wantRE.FindStringSubmatch(line)
			if wm == nil {
				continue
			}
			for _, q := range quotedRE.FindAllStringSubmatch(wm[1], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", m, i+1, q[1], err)
				}
				wants = append(wants, want{file: filepath.Base(m), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod — the anchor for the `go list` calls that locate stdlib export
// data for fixture imports.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("linttest: no go.mod above %s", dir)
		}
		dir = parent
	}
}
