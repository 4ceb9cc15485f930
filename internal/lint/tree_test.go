package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"switchpointer/internal/lint"
)

// TestSplintTreeClean is the shipped-tree gate: the full suite over every
// package in the module must produce zero diagnostics. Every locked network
// call and ctx-less I/O function in the tree is fixed; the suite has no
// exemptions, so a new violation fails this test — and with it go test ./...
func TestSplintTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("  " + d.String() + "\n")
		}
		t.Errorf("the lint suite found %d diagnostic(s) on the shipped tree:\n%s", len(diags), b.String())
	}
}

// TestSeededViolationFailsTheGate runs the tree gate's path — Load over
// "./..." of a module, then the full suite — on a throwaway module seeded
// with one violation of each analyzer, so a gate that loads nothing or
// reports nothing cannot pass as clean.
func TestSeededViolationFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module seedtest\n\ngo 1.24\n",
		"rpc/seed.go": `package rpc

import (
	"net/http"
	"sync"
)

var mu sync.Mutex

func Fetch(url string) error {
	mu.Lock()
	defer mu.Unlock()
	_, err := http.Get(url)
	return err
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading seeded module: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, d := range diags {
		found[d.Analyzer] = true
	}
	for _, a := range lint.All() {
		if !found[a.Name] {
			t.Errorf("%s reported nothing on its seeded violation; diagnostics:\n%v", a.Name, diags)
		}
	}
}
