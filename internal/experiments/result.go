// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §5, §6) from the reproduction, rendering aligned-text
// artifacts whose rows/series mirror the paper's plots. Each deterministic
// artifact is committed as testdata/<id>.golden.txt, where its "note:
// paper: …" lines sit next to the measured cells they compare against.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one renderable table: a header row plus data rows.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// Result is one regenerated experiment artifact.
type Result struct {
	ID     string // e.g. "fig2a"
	Title  string
	Tables []Table
	Notes  []string
}

// AddTable appends a table.
func (r *Result) AddTable(t Table) { r.Tables = append(r.Tables, t) }

// AddNote appends a free-form note line.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render produces the aligned-text artifact.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title)
	for _, t := range r.Tables {
		b.WriteString("\n")
		if t.Title != "" {
			fmt.Fprintf(&b, "-- %s --\n", t.Title)
		}
		b.WriteString(renderAligned(t.Cols, t.Rows))
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// renderAligned lays out a table with right-aligned columns.
func renderAligned(cols []string, rows [][]string) string {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(cols)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ms formats a float of milliseconds.
func ms(v float64) string { return fmt.Sprintf("%.2f", v) }
