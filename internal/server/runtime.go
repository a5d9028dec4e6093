// The process behind the model: Go runtime gauges for /metrics and
// the build identity /v1/healthz reports.
package server

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// goRuntimeSeries maps each exported Go runtime series to the
// runtime/metrics sample it reads. The heap goal is the one to watch
// for serving memory: it is what the heap may grow to before the next
// collection, so it bounds resident memory (see install).
var goRuntimeSeries = [...]struct{ name, sample string }{
	{"shine_go_heap_live_bytes", "/gc/heap/live:bytes"},
	{"shine_go_heap_goal_bytes", "/gc/heap/goal:bytes"},
	{"shine_go_memory_total_bytes", "/memory/classes/total:bytes"},
	{"shine_go_goroutines", "/sched/goroutines:goroutines"},
	{"shine_go_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
}

// goRuntime is the obs.Collector over goRuntimeSeries. It has no
// state, so every value is equal to every other and registering one
// again on a shared registry is a no-op.
type goRuntime struct{}

// Collect reads every series in one runtime/metrics.Read.
func (goRuntime) Collect(emit func(name string, value float64)) {
	var samples [len(goRuntimeSeries)]metrics.Sample
	for i, s := range goRuntimeSeries {
		samples[i].Name = s.sample
	}
	metrics.Read(samples[:])
	for i, s := range samples {
		// Every series is a uint64; a toolchain that dropped one
		// reports KindBad, and the series is skipped, not zeroed.
		if s.Value.Kind() == metrics.KindUint64 {
			emit(goRuntimeSeries[i].name, float64(s.Value.Uint64()))
		}
	}
}

// buildIdentity names the binary behind /v1/healthz: the Go toolchain
// that built it, the main module's version and, when the build stamped
// them, the VCS revision and whether the tree had local changes.
// Builds made with -buildvcs=false (bench/run.sh) carry no VCS
// stamp, and the two VCS fields are omitted.
type buildIdentity struct {
	GoVersion   string `json:"goVersion"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcsRevision,omitempty"`
	VCSModified *bool  `json:"vcsModified,omitempty"`
}

// readBuildIdentity reads the identity from the binary's embedded
// build information, once per server.
func readBuildIdentity() buildIdentity {
	id := buildIdentity{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return id
	}
	id.Version = bi.Main.Version
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			id.VCSRevision = kv.Value
		case "vcs.modified":
			modified := kv.Value == "true"
			id.VCSModified = &modified
		}
	}
	return id
}
