// Package report renders the result tables in aligned plain text, matching
// the dissertation's table layouts closely enough to compare side by side.
//
// The load-bearing invariant: rendering is deterministic — the same
// inputs produce the same bytes, with no map-iteration or locale
// dependence — because CI compares whole rendered tables with cmp/diff
// to prove single-node, dispatched and replicated sweeps agree.
package report

import (
	"fmt"
	"strings"

	"javaflow/internal/stats"
)

// Table is a titled grid with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New creates a table.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; values are formatted with %v, floats with 3 decimals.
func (t *Table) Add(cells ...interface{}) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
	return t
}

// AddSummary appends the five-statistic rows for a labelled Summary — the
// Mean/StdDev/Median/Max/Min layout of Tables 9–14.
func (t *Table) AddSummary(label string, s stats.Summary) *Table {
	return t.Add(label, s.Mean, s.StdDev, s.Median, s.Max, s.Min)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(t.Header) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// Sci formats large counts in engineering style (the paper's 2.82E+11).
func Sci(v float64) string { return fmt.Sprintf("%.2e", v) }
