package interp_test

import (
	"reflect"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// oneAtATime re-delivers every chunk it receives as a sequence of
// single-event batches, so its consumer sees the stream with a batch
// boundary after each event.
type oneAtATime struct{ t interp.Tracer }

func (o oneAtATime) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		o.t.ProcessBatch(m, evs[i:i+1])
	}
}

// TestBatchedReplayMatchesPerEvent: for every bundled workload, one VM run
// feeds two profilers through MultiTracer. The first consumes the engine's
// chunks as they come; the second gets the same chunks replayed one event
// per call. Their dependence tables, access counts and per-line counts
// must be identical: nothing the profiler derives (timestamps, region and
// loop context, per-thread state) may depend on where a chunk ends.
func TestBatchedReplayMatchesPerEvent(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := workloads.MustBuild(name, 1).M
			batched := profiler.New(m, profiler.Options{Store: profiler.StorePerfect})
			single := profiler.New(m, profiler.Options{Store: profiler.StorePerfect})
			it := interp.New(m, &interp.MultiTracer{Tracers: []interp.Tracer{
				batched, oneAtATime{single}}})
			it.Run()
			bres, sres := batched.Result(), single.Result()
			if bres.Accesses == 0 {
				t.Fatal("no accesses profiled")
			}
			fp, fn := profiler.DiffDeps(bres.Deps, sres.Deps)
			if len(fp) != 0 || len(fn) != 0 {
				t.Errorf("per-event replay diverged from batched delivery (fp=%d fn=%d)", len(fp), len(fn))
			}
			if bres.Accesses != sres.Accesses {
				t.Errorf("access counts diverged: batched %d, per-event %d", bres.Accesses, sres.Accesses)
			}
			if !reflect.DeepEqual(bres.Lines, sres.Lines) {
				t.Error("line counts diverged")
			}
		})
	}
}
