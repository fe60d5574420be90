package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(map[string]flagBound{
		"-workers": {4, 1}, "-run-cap": {0, 0}, "-replicate-cap": {0, 0},
	}); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	err := validateFlags(map[string]flagBound{
		"-workers":       {-2, 1},
		"-replicate-cap": {-1, 0},
		"-run-cap":       {-3, 0},
		"-batch-cap":     {3, 0},
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
