package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(map[string]flagBound{
		"-workers": atLeast(4, 1), "-run-cap": atLeast(0, 0), "-replicate-cap": atLeast(0, 0),
	}); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	err := validateFlags(map[string]flagBound{
		"-workers":       atLeast(-2, 1),
		"-replicate-cap": atLeast(-1, 0),
		"-run-cap":       atLeast(-3, 0),
		"-batch-cap":     atLeast(3, 0),
	})
	if err == nil {
		t.Fatal("negative flags accepted")
	}
	for _, want := range []string{
		"-workers must be >= 1, got -2",
		"-replicate-cap must be >= 0, got -1",
		"-run-cap must be >= 0, got -3",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "-batch-cap") {
		t.Fatalf("in-range flag named in error: %v", err)
	}
}

// TestExitCodes is jfserved's exit-code contract. Bad usage exits 2 with
// nothing on stdout, before anything is bound or opened; -advertise foo,
// a negative duration and a threshold above 1 used to start a node. A
// busy service or pprof address exits 1 before the store opens; a busy
// -debug-addr used to be logged while the node served on without pprof.
func TestExitCodes(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{[]string{"-workers", "0"}, 2, "-workers must be >= 1, got 0"},
		{[]string{"-peers", "https://x:1"}, 2, `-peers: bad peer URL "https://x:1" (want http://host[:port])`},
		{[]string{"-replicate-interval", "1h"}, 2, "-replicate-interval requires -peers"},
		{[]string{"-advertise", "foo"}, 2, `-advertise: bad peer URL "foo" (want http://host[:port])`},
		{[]string{"-advertise", "http://a:1,http://b:1"}, 2, "(want one http://host[:port])"},
		{[]string{"-drain", "-1s"}, 2, "-drain must be >= 0s, got -1s"},
		{[]string{"-replicate-interval", "-1s", "-compact-interval", "-5s"}, 2,
			"-compact-interval must be >= 0s, got -5s; -replicate-interval must be >= 0s, got -1s"},
		{[]string{"-compact-threshold", "1.5"}, 2, "-compact-threshold must be in [0, 1], got 1.5"},
		{[]string{"-addr", busy.Addr().String()}, 1, "address already in use"},
		{[]string{"-addr", "127.0.0.1:0", "-debug-addr", busy.Addr().String()}, 1, "address already in use"},
	} {
		args := append(tc.args, "-gen", "0", "-store-dir", dir)
		var stdout, stderr strings.Builder
		code := run(context.Background(), args, &stdout, &stderr)
		if code != tc.code || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("jfserved %s: exit %d, stdout %q, stderr %q; want exit %d, empty stdout, stderr containing %q",
				strings.Join(args, " "), code, stdout.String(), stderr.String(), tc.code, tc.want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("jfserved %s touched its store directory (stat: %v)", strings.Join(args, " "), err)
		}
	}
}
