package obs

import "runtime"

// RuntimeStats is the Go runtime block of a node's metrics snapshot.
type RuntimeStats struct {
	Goroutines     int     `json:"goroutines" prom:"javaflow_goroutines,gauge" help:"Current number of goroutines."`
	HeapAllocBytes uint64  `json:"heapAllocBytes" prom:"javaflow_heap_alloc_bytes,gauge" help:"Bytes of allocated heap objects."`
	HeapObjects    uint64  `json:"heapObjects" prom:"javaflow_heap_objects,gauge" help:"Number of allocated heap objects."`
	GCRuns         uint32  `json:"gcRuns" prom:"javaflow_gc_runs_total,counter" help:"Completed garbage-collection cycles."`
	GCPauseSeconds float64 `json:"gcPauseSeconds" prom:"javaflow_gc_pause_seconds_total,counter" help:"Cumulative stop-the-world GC pause time."`
}

// ReadRuntimeStats samples the goroutine count and, with one
// runtime.ReadMemStats, the heap and GC figures.
func ReadRuntimeStats() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: m.HeapAlloc,
		HeapObjects:    m.HeapObjects,
		GCRuns:         m.NumGC,
		GCPauseSeconds: float64(m.PauseTotalNs) / 1e9,
	}
}
