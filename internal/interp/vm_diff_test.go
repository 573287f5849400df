package interp

import (
	"fmt"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// evRecorder keeps the whole event stream, copying each chunk (the
// interpreter reuses its buffer). Two runs whose recorders hold equal
// slices emitted the same events, field for field, in the same order; this
// is the oracle of the walker-vs-VM differential tests below.
type evRecorder struct{ evs []Ev }

func (r *evRecorder) ProcessBatch(_ *ir.Module, evs []Ev) { r.evs = append(r.evs, evs...) }

// diffEvents describes the first difference between two event streams, or
// returns "" when they are identical.
func diffEvents(a, b []Ev) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d (of %d vs %d) differs: %+v vs %+v", i, len(a), len(b), a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d events after an identical prefix", len(a), len(b))
	}
	return ""
}

// engineRun captures everything a run exposes: the event stream and the
// interpreter's own counters.
type engineRun struct {
	evs    []Ev
	ret    int64
	instrs int64
	loads  int64
	stores int64
}

func runEngine(m *ir.Module, opts ...Option) engineRun {
	rec := &evRecorder{}
	it := New(m, rec, opts...)
	ret := it.Run()
	return engineRun{
		evs: rec.evs, ret: ret,
		instrs: it.Instrs, loads: it.Loads, stores: it.Stores,
	}
}

// TestVMMatchesTreeWalkAcrossRegistry: for every bundled workload — the
// full registry, multi-threaded ones included — the bytecode VM emits an
// Ev stream identical to the reference tree walker's, field for field,
// with identical instruction, load, and store counts. This is the
// contract that makes the VM a drop-in engine: every profiler artifact is
// a pure function of this event stream. It also pins everything the
// packing touches: kind/thread bits in the Sink word, EvExitRegion's
// instruction count riding in the Loc field, and where EvLoopPush lands.
func TestVMMatchesTreeWalkAcrossRegistry(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := workloads.MustBuild(name, 1).M
			walk := runEngine(m, WithTreeWalk())
			vm := runEngine(m)
			if d := diffEvents(walk.evs, vm.evs); d != "" {
				t.Errorf("trace diverged (walker vs vm): %s", d)
			}
			if walk.instrs != vm.instrs || walk.ret != vm.ret {
				t.Errorf("instrs diverged: walker %d (ret %d), vm %d (ret %d)",
					walk.instrs, walk.ret, vm.instrs, vm.ret)
			}
			if walk.loads != vm.loads || walk.stores != vm.stores {
				t.Errorf("access counts diverged: walker %d/%d, vm %d/%d",
					walk.loads, walk.stores, vm.loads, vm.stores)
			}
		})
	}
}

// TestVMMatchesTreeWalkUntraced: with no tracer attached the VM takes its
// fast paths (inlined loads and stores, fused superinstructions) — the
// counters must still agree with the walker's exactly.
func TestVMMatchesTreeWalkUntraced(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := workloads.MustBuild(name, 1).M
			wit := New(m, nil, WithTreeWalk())
			wret := wit.Run()
			vit := New(m, nil)
			vret := vit.Run()
			if wret != vret || wit.Instrs != vit.Instrs {
				t.Errorf("instrs diverged: walker %d (ret %d), vm %d (ret %d)",
					wit.Instrs, wret, vit.Instrs, vret)
			}
			if wit.Loads != vit.Loads || wit.Stores != vit.Stores {
				t.Errorf("access counts diverged: walker %d/%d, vm %d/%d",
					wit.Loads, wit.Stores, vit.Loads, vit.Stores)
			}
		})
	}
}

// capturePanic runs an interpreter to completion or panic, returning the
// panic message ("" if none) and the instruction count at that moment.
func capturePanic(m *ir.Module, opts ...Option) (msg string, instrs int64) {
	it := New(m, nil, opts...)
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
		instrs = it.Instrs
	}()
	it.Run()
	return
}

// TestVMBudgetParity: WithMaxInstrs aborts both engines at the same
// instruction count with the same message — the budget check sits at the
// same back-edge and call sites in the bytecode as in the tree.
func TestVMBudgetParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"CG", 500},
		{"CG", 7777},
		{"mandelbrot", 1000},
		{"md5-mt", 2000},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s@%d", tc.name, tc.budget), func(t *testing.T) {
			m := workloads.MustBuild(tc.name, 1).M
			wmsg, winstrs := capturePanic(m, WithMaxInstrs(tc.budget), WithTreeWalk())
			vmsg, vinstrs := capturePanic(m, WithMaxInstrs(tc.budget))
			if wmsg == "" {
				t.Fatalf("budget %d did not fire on the walker", tc.budget)
			}
			if wmsg != vmsg {
				t.Errorf("panic diverged:\n  walker: %s\n  vm:     %s", wmsg, vmsg)
			}
			if winstrs != vinstrs {
				t.Errorf("budget fired at instr %d on the walker, %d on the vm", winstrs, vinstrs)
			}
		})
	}
}

// buildSpawnLoop builds a module whose main loop spawns a short-lived
// worker and joins it, n times over. Only two simulated threads are ever
// live at once, but before thread-ID recycling each iteration burned a
// fresh ID — and the 65th spawn overflowed the fixed thread table.
func buildSpawnLoop(n int64) *ir.Module {
	b := ir.NewBuilder("recycle")
	w := b.Func("worker")
	x := w.Local("x", ir.F64)
	w.Set(x, ir.Add(ir.V(x), ir.CI(1)))
	wf := w.Done()
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(n), ir.CI(1), func(i *ir.Var) {
		mb.Spawn(wf)
		mb.Sync()
	})
	return b.Build(mb.Done())
}

// TestThreadIDRecycling: spawning 70 sequential workers — more than the
// 64-slot thread table — succeeds on both engines because dead threads'
// IDs return to a free list, and the recycled IDs reuse the same stack
// segment (the arena stays at two segments: main plus one worker).
func TestThreadIDRecycling(t *testing.T) {
	for _, eng := range []struct {
		name string
		opts []Option
	}{
		{"treewalk", []Option{WithTreeWalk()}},
		{"vm", nil},
	} {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			m := buildSpawnLoop(70)
			it := New(m, nil, eng.opts...)
			it.Run()
			if got := it.Space().StackPagesTouched(); got != 2 {
				t.Errorf("stack segments materialized = %d, want 2 (main + one recycled worker)", got)
			}
		})
	}
}

// TestThreadIDRecyclingTraced: the recycled runs stay trace-identical
// between engines — recycling is an allocator detail, invisible to the
// event stream.
func TestThreadIDRecyclingTraced(t *testing.T) {
	m := buildSpawnLoop(70)
	walk := runEngine(m, WithTreeWalk())
	vm := runEngine(m)
	if d := diffEvents(walk.evs, vm.evs); d != "" {
		t.Errorf("recycled trace diverged (walker vs vm): %s", d)
	}
	if walk.instrs != vm.instrs {
		t.Errorf("recycled run instrs diverged: walker %d, vm %d", walk.instrs, vm.instrs)
	}
}

// TestLiveThreadOverflowStillPanics: recycling must not lift the cap on
// *concurrently live* threads — 70 workers alive at once still overflow,
// with the same message on both engines.
func TestLiveThreadOverflowStillPanics(t *testing.T) {
	b := ir.NewBuilder("overflow")
	w := b.Func("worker")
	x := w.Local("x", ir.F64)
	// Long-running workers: the cooperative scheduler advances every live
	// thread between spawns, so a one-statement worker would die (and
	// free its ID) before the next spawn. These outlive all 70 spawns.
	w.For("j", ir.CI(0), ir.CI(1<<20), ir.CI(1), func(j *ir.Var) {
		w.Set(x, ir.Add(ir.V(x), ir.CI(1)))
	})
	wf := w.Done()
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(70), ir.CI(1), func(i *ir.Var) {
		mb.Spawn(wf) // no Sync: every worker is still live at each spawn
	})
	m := b.Build(mb.Done())
	wmsg, _ := capturePanic(m, WithTreeWalk())
	vmsg, _ := capturePanic(m)
	if wmsg == "" || vmsg == "" {
		t.Fatalf("70 live threads did not overflow: walker %q, vm %q", wmsg, vmsg)
	}
	if wmsg != vmsg {
		t.Errorf("overflow panic diverged:\n  walker: %s\n  vm:     %s", wmsg, vmsg)
	}
}

// oobModule builds a module whose 7th store lands outside the bound of a
// 4-element global array.
func oobModule() *ir.Module {
	b := ir.NewBuilder("oob")
	arr := b.GlobalArray("arr", ir.F64, 4)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(10), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.CF(1))
	})
	return b.Build(fb.Done())
}

// runToPanic drives a traced run to completion or panic, returning the
// panic message ("" if none).
func runToPanic(m *ir.Module, tr Tracer, opts ...Option) (msg string) {
	it := New(m, tr, opts...)
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	it.Run()
	return
}

// TestFaultingAccessEmitsNoEvent: an out-of-range access panics on both
// engines *without* feeding the bogus address to the tracer, and with the
// pre-fault prefix of the trace delivered identically (the buffer is
// flushed before the panic propagates). The bounds check precedes event
// emission because a VM fast path once emitted the event before the bound
// test, poisoning the dependence table of any consumer that recovers.
func TestFaultingAccessEmitsNoEvent(t *testing.T) {
	engines := []struct {
		name string
		opts []Option
	}{
		{"treewalk", []Option{WithTreeWalk()}},
		{"vm", nil},
	}
	var refMsg string
	var refEvs []Ev
	for i, eng := range engines {
		m := oobModule()
		bound := New(m, nil).Space().Bound()
		rec := &evRecorder{}
		msg := runToPanic(m, rec, eng.opts...)
		if msg == "" {
			t.Fatalf("%s: out-of-range store did not panic", eng.name)
		}
		accesses := 0
		for _, ev := range rec.evs {
			if k := ev.Kind(); k != EvLoad && k != EvStore {
				continue
			}
			accesses++
			if ev.Addr >= bound {
				t.Errorf("%s: faulting address %d (bound %d) was delivered to the tracer",
					eng.name, ev.Addr, bound)
			}
		}
		if accesses == 0 {
			t.Errorf("%s: the pre-fault prefix was not delivered", eng.name)
		}
		if i == 0 {
			refMsg, refEvs = msg, rec.evs
			continue
		}
		if msg != refMsg {
			t.Errorf("%s panic diverged from %s:\n  %s\n  %s", eng.name, engines[0].name, msg, refMsg)
		}
		if d := diffEvents(refEvs, rec.evs); d != "" {
			t.Errorf("%s pre-fault trace diverged from %s: %s", eng.name, engines[0].name, d)
		}
	}
}
