package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"discopop/internal/bytecode"
	"discopop/internal/cu"
	"discopop/internal/discovery"
	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/journal"
	"discopop/internal/mem"
	"discopop/internal/obs"
	"discopop/internal/pet"
	"discopop/internal/profiler"
	"discopop/internal/rank"
	"discopop/internal/remote"
	"discopop/internal/workloads"
)

// replayOrder says which of the replay's timed reps of a program record
// spans (true) and which do not, after one untimed warm-up rep. Every layer
// time is the median over all of them; the recorded reps' wall time over
// the unrecorded reps' is the tracing overhead. ABBA, so drift over a
// program's reps weighs on both sides alike.
var replayOrder = []bool{true, false, false, true}

// nullBatch swallows batched events: a run into it costs execution plus
// event emission and delivery, and no consumption.
type nullBatch struct{ interp.BaseTracer }

func (nullBatch) ProcessBatch(*ir.Module, []interp.Ev) {}

// layerTimes is one program's replay: the median time of each layer call
// (ms), the median wall time of a recorded and of an unrecorded rep, and
// the counts the layers produced.
type layerTimes struct {
	key           string
	ms            map[string]float64
	recMS, bareMS float64

	moduleKB                            float64
	instrs, accesses, deps, suggestions int64
}

// timed runs f, inside a span named name when rec is not nil, and returns
// its duration in ms.
func timed(rec *obs.Recorder, name string, f func()) float64 {
	sp := -1
	if rec != nil {
		sp = rec.Start(name)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if rec != nil {
		rec.End(sp)
	}
	return ms(d)
}

// replayItem is one program the replay runs: a registry program or an
// inline nest, with the oracle for its ranking.
type replayItem struct {
	key    string
	build  func() (*ir.Module, error)
	verify func(ranked []*discovery.Suggestion) error
}

// registryItem replays registry program k against its reference ranking.
func registryItem(k progKey, ref string) replayItem {
	return replayItem{
		key: k.String(),
		build: func() (*ir.Module, error) {
			p, err := workloads.Build(k.name, k.scale)
			if err != nil {
				return nil, err
			}
			return p.M, nil
		},
		verify: func(ranked []*discovery.Suggestion) error {
			if got := reportSet(ranked); got != ref {
				return fmt.Errorf("ranked set %q, reference %q", got, ref)
			}
			return nil
		},
	}
}

func registryItems(keys []progKey, refs map[string]string) []replayItem {
	items := make([]replayItem, len(keys))
	for i, k := range keys {
		items[i] = registryItem(k, refs[k.String()])
	}
	return items
}

// inlineItem replays an inline nest against the known verdicts.
func inlineItem(req request) replayItem {
	return replayItem{
		key:    req.name,
		build:  func() (*ir.Module, error) { return inlineModule(req.name, req.nest) },
		verify: func(ranked []*discovery.Suggestion) error { return checkInline(req.nest, answer(ranked)) },
	}
}

// replayProgram runs one program through every layer's public entry
// point, one call at a time: a warm-up rep, then one rep per replayOrder
// entry. Each rep checks the ranking it ends with.
func replayProgram(rec *obs.Recorder, it replayItem) (*layerTimes, error) {
	m, err := it.build()
	if err != nil {
		return nil, err
	}
	raw, err := remote.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", it.key, err)
	}
	lt := &layerTimes{key: it.key, ms: map[string]float64{}, moduleKB: float64(len(raw)) / 1024}
	samples := map[string][]float64{}
	var recReps, bareReps []float64
	prog := rec.Start("program")
	rec.Annotate("program", lt.key)
	var res *profiler.Result
	for r := -1; r < len(replayOrder); r++ {
		var rr *obs.Recorder // nil: this rep records no spans
		if r >= 0 && replayOrder[r] {
			rr = rec
		}
		add := func(name string, v float64) {
			if r >= 0 {
				samples[name] = append(samples[name], v)
			}
		}
		run := func(name string, t interp.Tracer) int64 {
			in := interp.New(m, t, interp.WithPool(mem.Default))
			defer in.Release()
			var n int64
			add(name, timed(rr, name, func() { n = in.Run() }))
			return n
		}
		t0 := time.Now()
		var decErr error
		add("remote.decode", timed(rr, "remote.decode", func() { _, decErr = remote.Decode(raw) }))
		if decErr != nil {
			return nil, fmt.Errorf("decode %s: %w", it.key, decErr)
		}
		add("bytecode.compile", timed(rr, "bytecode.compile", func() { bytecode.Compile(m) }))
		lt.instrs = run("interp.exec", nil)
		run("interp.emit", &nullBatch{})
		prof := profiler.New(m, profiler.Options{})
		run("profiler.consume", prof)
		add("profiler.result", timed(rr, "profiler.result", func() { res = prof.Result() }))
		var sc *ir.Scope
		var g *cu.Graph
		add("cu.build", timed(rr, "cu.build", func() {
			sc = ir.AnalyzeScopes(m)
			g = cu.Build(m, sc, res)
		}))
		var a *discovery.Analysis
		add("discovery.analyze", timed(rr, "discovery.analyze", func() {
			a = discovery.Analyze(m, sc, res, g)
			a.Suggestions = append(a.Suggestions, a.RecursiveTaskFuncs()...)
		}))
		var ranked []*discovery.Suggestion
		add("rank.rank", timed(rr, "rank.rank", func() { ranked = rank.Rank(a, rank.Options{Threads: 16}) }))
		d := ms(time.Since(t0))
		if err := it.verify(ranked); err != nil {
			return nil, fmt.Errorf("replay %s: %w", it.key, err)
		}
		lt.accesses, lt.deps, lt.suggestions = res.Accesses, int64(len(res.Deps)), int64(len(a.Suggestions))
		switch {
		case r < 0:
		case replayOrder[r]:
			recReps = append(recReps, d)
		default:
			bareReps = append(bareReps, d)
		}
	}
	// The PET needs a run of its own; one sample of the tree, outside the
	// reps, is enough for a stage this small.
	pb := pet.NewBuilder()
	in := interp.New(m, pb, interp.WithPool(mem.Default))
	timed(rec, "pet.events", func() { in.Run() })
	in.Release()
	lt.ms["pet.tree"] = timed(rec, "pet.tree", func() {
		sinks := make(map[ir.Loc]int64, len(res.Deps))
		for d, n := range res.Deps {
			sinks[d.Sink] += n
		}
		pb.Tree(lt.instrs).AttachDeps(sinks)
	})
	for name, xs := range samples {
		lt.ms[name] = median(xs)
	}
	lt.recMS, lt.bareMS = median(recReps), median(bareReps)
	// The emit and consume runs include the cheaper runs below them; keep
	// only what each adds.
	lt.ms["profiler.consume"] -= lt.ms["interp.emit"]
	lt.ms["interp.emit"] -= lt.ms["interp.exec"]
	rec.AnnotateSpan(prog, "slowdown_x", fmt.Sprintf("%.3f", lt.slowdown()))
	rec.End(prog)
	return lt, nil
}

// slowdown is the paper's profiling slowdown (Fig 2.9): profiled run plus
// result merge over the untraced run.
func (lt *layerTimes) slowdown() float64 {
	prof := lt.ms["interp.exec"] + lt.ms["interp.emit"] + lt.ms["profiler.consume"] + lt.ms["profiler.result"]
	return ratio(prof, lt.ms["interp.exec"])
}

// journalSyncs times journal appends made durable one at a time: Append of
// a finished-job record, then Sync. It runs on a scratch journal in dir.
func journalSyncs(dir string, n int) ([]float64, error) {
	j, _, err := journal.Open(filepath.Join(dir, "sync-probe"))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	result, err := json.Marshal(map[string]any{"instrs": 12345, "suggestions": []suggestion{{"DOALL", "1:10"}}})
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := j.Append(journal.Record{Op: journal.OpFinished, ID: fmt.Sprintf("p%d", i),
			Time: t0, State: "done", Result: result})
		if err == nil {
			err = j.Sync()
		}
		if err != nil {
			return nil, fmt.Errorf("journal probe: %w", err)
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// replayMetrics folds the per-program replays into the replay's layer
// metrics: times and counts summed over the workload's programs, and
// per-call medians where the name says p50.
func replayMetrics(lts []*layerTimes, syncs []float64) map[string]float64 {
	sum := func(name string) float64 {
		var t float64
		for _, lt := range lts {
			t += lt.ms[name]
		}
		return t
	}
	p50 := func(f func(*layerTimes) float64) float64 {
		xs := make([]float64, len(lts))
		for i, lt := range lts {
			xs[i] = f(lt)
		}
		return median(xs)
	}
	var instrs, accesses, deps, sugg float64
	for _, lt := range lts {
		instrs += float64(lt.instrs)
		accesses += float64(lt.accesses)
		deps += float64(lt.deps)
		sugg += float64(lt.suggestions)
	}
	exec := sum("interp.exec")
	var recMS, bareMS float64
	for _, lt := range lts {
		recMS += lt.recMS
		bareMS += lt.bareMS
	}
	return map[string]float64{
		"trace.overhead_ratio":    ratio(recMS, bareMS) - 1,
		"remote.decode_ms_p50":    p50(func(lt *layerTimes) float64 { return lt.ms["remote.decode"] }),
		"remote.module_kb_p50":    p50(func(lt *layerTimes) float64 { return lt.moduleKB }),
		"bytecode.compile_ms_p50": p50(func(lt *layerTimes) float64 { return lt.ms["bytecode.compile"] }),
		"interp.exec_ms":          exec,
		"interp.instrs":           instrs,
		"interp.emit_ms":          sum("interp.emit"),
		"profiler.consume_ms":     sum("profiler.consume"),
		"profiler.result_ms":      sum("profiler.result"),
		"profiler.accesses":       accesses,
		"profiler.deps":           deps,
		"profiler.slowdown_x":     ratio(exec+sum("interp.emit")+sum("profiler.consume")+sum("profiler.result"), exec),
		"pet.tree_ms":             sum("pet.tree"),
		"cu.build_ms":             sum("cu.build"),
		"discovery.analyze_ms":    sum("discovery.analyze"),
		"discovery.suggestions":   sugg,
		"rank.rank_ms":            sum("rank.rank"),
		"journal.sync_ms_p50":     median(syncs),
	}
}

// journalProbes is how many durable appends the replay times.
const journalProbes = 64

// replay runs every program through the layers under one recorder and
// returns the layer metrics, the per-program results and the trace.
func replay(items []replayItem, dir string) (map[string]float64, []*layerTimes, *obs.Trace, error) {
	rec := obs.NewRecorder("replay")
	root := rec.Start("replay")
	var lts []*layerTimes
	for _, it := range items {
		lt, err := replayProgram(rec, it)
		if err != nil {
			return nil, nil, nil, err
		}
		lts = append(lts, lt)
	}
	sp := rec.Start("journal.sync")
	syncs, err := journalSyncs(dir, journalProbes)
	rec.End(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	rec.End(root)
	return replayMetrics(lts, syncs), lts, rec.Trace(), nil
}

// mergeTraces concatenates traces into one, re-basing parent indexes, so a
// run's client, server and replay spans land in one Chrome trace file.
func mergeTraces(id string, traces []*obs.Trace) *obs.Trace {
	out := &obs.Trace{ID: id}
	for _, t := range traces {
		base := len(out.Spans)
		for _, sp := range t.Spans {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			out.Spans = append(out.Spans, sp)
		}
	}
	return out
}

// selfTimes sums each span name's self time (its duration minus the part
// its children cover) in ms, over a trace.
func selfTimes(t *obs.Trace) map[string]float64 {
	child := make([]int64, len(t.Spans))
	for _, sp := range t.Spans {
		if sp.Parent >= 0 && sp.Parent < len(t.Spans) {
			child[sp.Parent] += sp.Dur
		}
	}
	out := map[string]float64{}
	for i, sp := range t.Spans {
		self := sp.Dur - child[i]
		if self < 0 {
			self = 0 // grafted spans can overhang a clock-shifted parent
		}
		out[sp.Name] += float64(self) / 1e6
	}
	return out
}

// writeTrace writes the trace as Chrome trace-event JSON to path.
func writeTrace(path string, t *obs.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the self-time table, largest first.
func printSelfTimes(self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("self_ms %-22s %10.2f\n", n, self[n])
	}
}
