package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"javaflow/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenFiles pins the paper's whole output at jfbench defaults (seed 2014,
// gen 1580, scale 2, maxcycles 400 000): the stdout of `jfbench -all`, of
// `jfbench -ablations`, and of `jfbench -scenario <name>` for every catalog
// entry in catalog order.
var goldenFiles = []string{"tables_all.golden", "ablations.golden", "presets.golden"}

// renderGoldens renders what jfbench prints for each golden file, on a
// fresh default context with the given worker count.
func renderGoldens(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	c := NewContext()
	c.Workers = workers
	out := make(map[string][]byte, len(goldenFiles))

	var all bytes.Buffer
	for n := 1; n <= 28; n++ {
		tbl, err := c.TableByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&all, tbl)
	}
	out["tables_all.golden"] = all.Bytes()

	var abl bytes.Buffer
	tables, err := c.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		fmt.Fprintln(&abl, tbl)
	}
	out["ablations.golden"] = abl.Bytes()

	var presets bytes.Buffer
	for i := range scenario.Catalog() {
		rep, err := c.RunScenario(&scenario.Catalog()[i])
		if err != nil {
			t.Fatal(err)
		}
		presets.WriteString(rep.Render())
	}
	out["presets.golden"] = presets.Bytes()
	return out
}

// TestGoldenOutput compares the paper's rendered output byte for byte with
// testdata, serially and on a worker pool (the scheduler promises both are
// identical). On a mismatch it prints the first differing table as a line
// diff. Regenerate with `go test ./internal/experiments -run TestGoldenOutput
// -update` — only in a change that says which number moved and why. Under
// -race only the pool pass runs: the serial one has nothing to race, and
// the race detector makes each pass about ten times slower.
func TestGoldenOutput(t *testing.T) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		parallel = 2 // a pool even on a one-CPU runner
	}
	passes := []int{1, parallel}
	if raceEnabled {
		passes = passes[1:]
	}
	for _, workers := range passes {
		got := renderGoldens(t, workers)
		for _, name := range goldenFiles {
			path := filepath.Join("testdata", name)
			if *update && workers == passes[0] {
				if err := os.WriteFile(path, got[name], 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got[name], want) {
				t.Errorf("%s differs at workers=%d:\n%s", name, workers, firstDiff(want, got[name]))
			}
		}
	}

	// The tables golden and the benchmark harness's pin of the same
	// output must not drift apart.
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		TablesSHA256 string `json:"tables_all_sha256"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	tables, err := os.ReadFile(filepath.Join("testdata", "tables_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(tables); hex.EncodeToString(sum[:]) != g.TablesSHA256 {
		t.Errorf("testdata/tables_all.golden sha256 %x, bench/golden.json tables_all_sha256 %s",
			sum, g.TablesSHA256)
	}
}

// firstDiff renders the first blank-line-separated block (one table) that
// differs between want and got, as "-want"/"+got" lines.
func firstDiff(want, got []byte) string {
	wb := strings.Split(string(want), "\n\n")
	gb := strings.Split(string(got), "\n\n")
	for i := 0; i < len(wb) || i < len(gb); i++ {
		var w, g string
		if i < len(wb) {
			w = wb[i]
		}
		if i < len(gb) {
			g = gb[i]
		}
		if w == g {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "block %d:\n", i+1)
		wl, gl := strings.Split(w, "\n"), strings.Split(g, "\n")
		for j := 0; j < len(wl) || j < len(gl); j++ {
			switch {
			case j >= len(wl):
				fmt.Fprintf(&b, "+%s\n", gl[j])
			case j >= len(gl):
				fmt.Fprintf(&b, "-%s\n", wl[j])
			case wl[j] != gl[j]:
				fmt.Fprintf(&b, "-%s\n+%s\n", wl[j], gl[j])
			default:
				fmt.Fprintf(&b, " %s\n", wl[j])
			}
		}
		return b.String()
	}
	return "(no differing block)"
}
