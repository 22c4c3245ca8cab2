package obs

import "runtime/metrics"

// runtimeFamilies are the Go runtime's own families: what the process
// holds (goroutines, live heap) and what it has spent (allocations, GC
// cycles), each read from its runtime/metrics sample.
var runtimeFamilies = []struct {
	name, help, sample string
	typ                MetricType
}{
	{"go_goroutines", "Goroutines that currently exist.",
		"/sched/goroutines:goroutines", TypeGauge},
	{"go_heap_live_bytes", "Heap bytes the last GC cycle marked live.",
		"/gc/heap/live:bytes", TypeGauge},
	{"go_heap_allocs_bytes_total", "Bytes allocated on the heap since the process started.",
		"/gc/heap/allocs:bytes", TypeCounter},
	{"go_heap_allocs_objects_total", "Heap objects allocated since the process started.",
		"/gc/heap/allocs:objects", TypeCounter},
	{"go_gc_cycles_total", "GC cycles completed since the process started.",
		"/gc/cycles/total:gc-cycles", TypeCounter},
}

// RegisterRuntime registers the Go runtime families on r. Each reads its
// sample when scraped, so the requests themselves pay nothing for them.
func RegisterRuntime(r *Registry) {
	for _, f := range runtimeFamilies {
		sample := f.sample
		r.register(&family{name: f.name, help: f.help, typ: f.typ, valueFn: func() float64 {
			s := []metrics.Sample{{Name: sample}}
			metrics.Read(s)
			switch v := s[0].Value; v.Kind() {
			case metrics.KindUint64:
				return float64(v.Uint64())
			case metrics.KindFloat64:
				return v.Float64()
			}
			return 0 // a sample this toolchain does not have
		}})
	}
}
