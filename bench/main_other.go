//go:build !linux

// The harness pins CPUs with sched_setaffinity, reads other processes'
// CPU-time clocks and /proc/<pid>/status, and kills process groups: it runs
// on Linux only. Elsewhere it builds to this message.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Fprintln(os.Stderr, "bench: the benchmark harness runs on Linux only")
	os.Exit(1)
}
