package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallClock names the experiments whose tables measure real elapsed time —
// they are the package's only time.Now users — so no golden can pin them.
var wallClock = map[string]bool{"fig9": true, "ablation-packetmix": true, "diagnosis-throughput": true}

func goldenPath(id string) string { return filepath.Join("testdata", id+".golden.txt") }

// golden returns the committed Render() of experiment id.
func golden(t *testing.T, id string) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("%s: %v (UPDATE_GOLDEN=1 go test ./internal/experiments writes it)", id, err)
	}
	return string(want)
}

func TestRenderAligned(t *testing.T) {
	r := &Result{ID: "x", Title: "demo"}
	r.AddTable(Table{Title: "t", Cols: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}})
	r.AddNote("hello %d", 7)
	out := r.Render()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "note: hello 7") {
		t.Fatalf("render:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "333") && !strings.Contains(line, "333   4") {
			t.Fatalf("alignment wrong: %q", line)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if f(0) != "0" || f(123.4) != "123" || f(12.34) != "12.3" || f(1.234) != "1.234" {
		t.Fatalf("f() formats: %s %s %s %s", f(0), f(123.4), f(12.34), f(1.234))
	}
	if ms(1.5) != "1.50" {
		t.Fatalf("ms() = %s", ms(1.5))
	}
}

func TestRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Run == nil || e.Desc == "" {
			t.Fatalf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := Find("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatalf("unknown ID accepted")
	}
}

// Per-figure shape tests: the paper's qualitative claims, which the goldens
// pin only as numbers.

func TestFig3Runs(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) == 0 || len(r.Tables[0].Rows) != 20 {
		t.Fatalf("fig3 shape: %+v", r.Tables)
	}
}

func TestFig4Runs(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("fig4 wants 2 tables")
	}
	// The cascade run must complete later than the baseline run; both notes
	// carry completion stamps.
	if len(r.Notes) != 2 {
		t.Fatalf("fig4 notes: %v", r.Notes)
	}
}

func TestFig7Runs(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != len(burstSweep) {
		t.Fatalf("fig7 rows = %d", len(rows))
	}
	// Totals under 100 ms (the paper's headline for Fig 7).
	for _, row := range rows {
		total, err := strconv.ParseFloat(row[5], 64)
		if err != nil || total <= 0 || total > 100 {
			t.Fatalf("fig7 total out of budget: %v (%v)", row, err)
		}
	}
	// Diagnosis time grows with m (more consulted hosts).
	first, _ := strconv.ParseFloat(rows[0][4], 64)
	last, _ := strconv.ParseFloat(rows[len(rows)-1][4], 64)
	if last <= first {
		t.Fatalf("fig7 diagnosis not increasing: %v vs %v", first, last)
	}
}

func TestFig8QuickShape(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	var prev float64
	for i, row := range rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v <= prev {
			t.Fatalf("fig8 latency not increasing: %v", rows)
		}
		prev = v
	}
}

func TestFig10bShape(t *testing.T) {
	r, err := Fig10b()
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	// k=1, n=1M, α=10 ≈ 100 Mbps; k=2 ≈ 10 Mbps (column 2 is n=1M α=10).
	k1, _ := strconv.ParseFloat(rows[0][2], 64)
	k2, _ := strconv.ParseFloat(rows[1][2], 64)
	if k1 < 90 || k1 > 110 {
		t.Fatalf("k=1 bandwidth = %v, want ≈100 Mbps", k1)
	}
	ratio := k1 / k2
	if ratio < 9 || ratio > 11 {
		t.Fatalf("k=1/k=2 ratio = %v, want ≈10", ratio)
	}
}

func TestFig11Anchors(t *testing.T) {
	r, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	l1, _ := strconv.ParseFloat(rows[0][1], 64)
	l2, _ := strconv.ParseFloat(rows[0][2], 64)
	if l1 != 90 || l2 != 900 {
		t.Fatalf("α=10 anchors wrong: %v", rows[0])
	}
}

func TestFig12QuickShape(t *testing.T) {
	r, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	// PathDump is ≈flat; SwitchPointer grows and stays below PathDump until
	// every server is relevant.
	for i, row := range rows {
		sp, _ := strconv.ParseFloat(row[1], 64)
		pd, _ := strconv.ParseFloat(row[2], 64)
		if sp <= 0 || pd <= 0 {
			t.Fatalf("bad row %v", row)
		}
		if i < len(rows)-1 && sp >= pd {
			t.Fatalf("SwitchPointer not cheaper with few relevant servers: %v", row)
		}
	}
	last := rows[len(rows)-1]
	sp, _ := strconv.ParseFloat(last[1], 64)
	pd, _ := strconv.ParseFloat(last[2], 64)
	if sp/pd < 0.9 || sp/pd > 1.1 {
		t.Fatalf("with all servers relevant SP should match PD: %v vs %v", sp, pd)
	}
}

func TestAblationRunners(t *testing.T) {
	for _, run := range []Runner{AblationRPCPooling, AblationHeaderModes, AblationEpochRuleFloor} {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Tables) == 0 {
			t.Fatalf("%s: no tables", r.ID)
		}
	}
}

func TestAblationHeaderModesNumbers(t *testing.T) {
	r, err := AblationHeaderModes()
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	// 5-switch path: commodity 8 B, INT 40 B.
	last := rows[len(rows)-1]
	if last[1] != "8" || last[2] != "40" {
		t.Fatalf("overhead row wrong: %v", last)
	}
}

// TestFullRegistryArtifacts runs every registered experiment end to end,
// sanity-checks its artifact and, unless it is wall-clock, compares its
// rendering byte for byte with testdata/<id>.golden.txt — the paper-figure
// drift gate. UPDATE_GOLDEN=1 rewrites the goldens.
func TestFullRegistryArtifacts(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Fatalf("artifact ID %q != registry ID %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for ti, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s table %d: no rows", e.ID, ti)
				}
				for ri, row := range tab.Rows {
					if len(row) != len(tab.Cols) {
						t.Fatalf("%s table %d row %d: %d cells for %d cols",
							e.ID, ti, ri, len(row), len(tab.Cols))
					}
				}
			}
			out := res.Render()
			if len(out) < 100 {
				t.Fatalf("%s: suspiciously small artifact", e.ID)
			}
			if wallClock[e.ID] {
				return
			}
			if update {
				if err := os.WriteFile(goldenPath(e.ID), []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if want := golden(t, e.ID); out != want {
				t.Errorf("%s diverged from %s (UPDATE_GOLDEN=1 rewrites it)\n--- got ---\n%s--- want ---\n%s",
					e.ID, goldenPath(e.ID), out, want)
			}
		})
	}
}
