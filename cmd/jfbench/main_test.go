package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(map[string]flagBound{
		"-workers": {8, 1}, "-gen": {0, 0},
	}); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	err := validateFlags(map[string]flagBound{
		"-workers":   {0, 1},
		"-maxcycles": {-5, 1},
		"-gen":       {100, 0},
	})
	if err == nil {
		t.Fatal("out-of-range flags accepted")
	}
	for _, want := range []string{
		"-workers must be >= 1, got 0",
		"-maxcycles must be >= 1, got -5",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "-gen") {
		t.Fatalf("in-range flag named in error: %v", err)
	}
}

// runJfbench runs the command in process and returns its exit status and
// output.
func runJfbench(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrorsExitTwo: bad usage exits 2 with nothing on stdout and is
// caught before any table is computed (an out-of-range -table number used
// to exit 1 after printing the tables before it).
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "no-such-scenario"}, `unknown scenario "no-such-scenario"`},
		{[]string{"-table", "0"}, "no table 0 (valid: 1-28)"},
		{[]string{"-table", "1,29"}, "no table 29 (valid: 1-28)"},
		{[]string{"-table", "3,x"}, `bad table number "x"`},
		{[]string{"-workers", "0", "-all"}, "-workers must be >= 1, got 0"},
		{[]string{"-store-dir", "results", "-all"}, "flag provided but not defined: -store-dir"},
		{[]string{"-peers", "http://127.0.0.1:8077", "-all"}, "flag provided but not defined: -peers"},
		{[]string{"-pull", "-all"}, "flag provided but not defined: -pull"},
		{[]string{"-fleet", "http://127.0.0.1:8077"}, "flag provided but not defined: -fleet"},
		{nil, "Usage of jfbench"},
	} {
		code, stdout, stderr := runJfbench(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("jfbench %s: exit %d, stdout %q, stderr %q; want exit 2, empty stdout, stderr containing %q",
				strings.Join(tc.args, " "), code, stdout, stderr, tc.want)
		}
	}
}

func TestScenariosListsTheCatalog(t *testing.T) {
	code, stdout, stderr := runJfbench("-scenarios")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"chapter7", "scimark", "crypto", "compress", "spec98"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("-scenarios lists %q, want %q", names, want)
	}
}
