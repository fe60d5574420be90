package report

import (
	"strings"
	"testing"

	"javaflow/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tbl := New("Title", "Name", "Value")
	tbl.Add("short", 1)
	tbl.Add("a-much-longer-name", 2.5)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Errorf("missing header: %q", lines[1])
	}
	if !strings.Contains(out, "2.500") {
		t.Errorf("float not formatted to 3 decimals:\n%s", out)
	}
	// Columns align: the Value column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "Value")
	for _, ln := range lines[3:] {
		if len(ln) <= idx {
			t.Errorf("short row %q", ln)
			continue
		}
	}
}

func TestAddSummary(t *testing.T) {
	tbl := New("", "Q", "Mean", "StdDev", "Median", "Max", "Min")
	tbl.AddSummary("x", stats.Summary{Mean: 1, StdDev: 2, Median: 3, Max: 4, Min: 5})
	out := tbl.String()
	for _, want := range []string{"1.000", "2.000", "3.000", "4.000", "5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary row missing %s:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.4); got != "40%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Sci(2.82e11); got != "2.82e+11" {
		t.Errorf("Sci = %q", got)
	}
}
