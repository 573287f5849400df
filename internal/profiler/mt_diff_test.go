package profiler

import (
	"reflect"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// TestMTMatchesTreeWalk is the multi-threaded engine differential: on
// every MT workload, across serial and parallel pipeline configurations,
// profiling the VM's event stream produces the dependence table, access
// count and per-line counts of profiling the tree walker's. Running the
// package under -race additionally checks that chunks crossing the
// profiler's worker pipes (and the MT barrier flushes batchPipe inserts at
// lock/unlock/thread-end events) stay properly synchronized.
func TestMTMatchesTreeWalk(t *testing.T) {
	for _, workers := range []int{0, 2, 4} {
		for _, name := range workloads.Names("Starbench-MT") {
			opts := Options{Store: StorePerfect, MT: true, Workers: workers}
			vm := Profile(workloads.MustBuild(name, 1).M, opts)
			opts.TreeWalk = true
			walk := Profile(workloads.MustBuild(name, 1).M, opts)
			fp, fn := DiffDeps(vm.Deps, walk.Deps)
			if len(fp) != 0 || len(fn) != 0 {
				t.Errorf("%s (%d workers): vm deps diverged from walker (fp=%d fn=%d)",
					name, workers, len(fp), len(fn))
			}
			if vm.Accesses != walk.Accesses {
				t.Errorf("%s (%d workers): access counts diverged: vm %d, walker %d",
					name, workers, vm.Accesses, walk.Accesses)
			}
			if !reflect.DeepEqual(vm.Lines, walk.Lines) {
				t.Errorf("%s (%d workers): line counts diverged", name, workers)
			}
		}
	}
}

// singleEvents replays each chunk it receives one event per call.
type singleEvents struct{ p *Profiler }

func (s singleEvents) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		s.p.ProcessBatch(m, evs[i:i+1])
	}
}

// TestBatchedAndReplayedProfilersAgreeInOneRun drives two profilers from a
// single interpreter run through MultiTracer: the first consumes the
// engine's chunks directly, the second sees the very same chunks replayed
// one event per call. Serially and with the parallel pipeline (where every
// replayed access then reaches the workers as a chunk of its own), their
// results must be identical.
func TestBatchedAndReplayedProfilersAgreeInOneRun(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, name := range []string{"CG", "md5-mt", "histogram"} {
			m := workloads.MustBuild(name, 1).M
			opts := Options{Store: StorePerfect, MT: name == "md5-mt", Workers: workers}
			direct, replayed := New(m, opts), New(m, opts)
			in := interp.New(m, &interp.MultiTracer{Tracers: []interp.Tracer{
				direct, singleEvents{replayed}}})
			in.Run()
			dres, rres := direct.Result(), replayed.Result()
			fp, fn := DiffDeps(dres.Deps, rres.Deps)
			if len(fp) != 0 || len(fn) != 0 {
				t.Errorf("%s (%d workers): batched and replayed profilers diverged in one run (fp=%d fn=%d)",
					name, workers, len(fp), len(fn))
			}
			if dres.Accesses != rres.Accesses || !reflect.DeepEqual(dres.Lines, rres.Lines) {
				t.Errorf("%s (%d workers): accesses/lines diverged: %d vs %d",
					name, workers, dres.Accesses, rres.Accesses)
			}
		}
	}
}
