package discopop_test

import (
	"testing"

	"discopop/internal/interp"
	"discopop/internal/workloads"
)

// BenchmarkTraceDeliveryBatch is the null-consumer probe: a tracer that
// swallows every chunk without profiling work, isolating the cost of
// emitting and delivering the event stream. The gap between it and
// BenchmarkInterpNative is the delivery cost on top of execution.
func BenchmarkTraceDeliveryBatch(b *testing.B) {
	prog := workloads.MustBuild("CG", benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp.New(prog.M, interp.BaseTracer{}).Run()
	}
}
