// Command perfbench is the repository's benchmark: a closed-loop load
// generator driving a real dp-serve Server over loopback HTTP and an
// offline runner for the library path. Workloads:
//
//	serve-cold     1 closed-loop client, server Workers 2, journal on;
//	               every request a distinct program (renamed registry
//	               programs as modules, inline kernel nests), so both
//	               caches miss
//	serve-hot      the same loop over a seeded hot set of 8 registry
//	               programs warmed into the profile cache; runnable by hand
//	               but not in BENCHMARK.json: the CPU time of its
//	               sub-millisecond jobs is too coarse at p99 to gate
//	analyze-large  discopop.Analyze on 29 registry programs at scale 8, one
//	               at a time, in whole cycles
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics, whose times are
// process CPU time (cpuNow says why); with --trace 1 it measures the
// per-layer metrics, the wall-clock client.* figures among them: the same
// timed phase (serve-*: with client spans recorded and each job's
// server-side spans grafted in), then a replay of the workload's programs
// through each layer's public entry point, in reps with and without spans,
// whose difference is the tracing overhead.
// The traced run writes its spans as Chrome trace-event JSON under
// .bench_build/perfbench. Every answer is checked: registry programs
// against a reference ranking computed on the reference tree walker, inline
// kernels against their known verdicts. The last line of standard output is
// the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"discopop/internal/bytecode"
	"discopop/internal/mem"
	"discopop/internal/obs"
)

// metricDef is one reported metric; the lists match BENCHMARK.json.
type metricDef struct{ name, unit string }

// The end-to-end times are process CPU time (see cpuNow); their wall-clock
// counterparts are the per-layer client.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_cpu_s", "1/s"},
	{"job_cpu_ms_p50", "ms"},
	{"job_cpu_ms_p99", "ms"},
	{"instrs_per_cpu_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"retained_heap_mb", "MB"},
}

// stageNames are the default pipeline's stages, as its spans name them.
var stageNames = []string{"profile", "build-pet", "build-cus", "discover", "rank"}

var perLayer = func() []metricDef {
	out := []metricDef{
		{"client.jobs_per_s", "1/s"},
		{"client.latency_p50_ms", "ms"},
		{"client.latency_p99_ms", "ms"},
		{"server.submit_ms_p50", "ms"},
		{"server.rejected", "count"},
		{"server.latency_samples", "count"},
		{"remote.decode_ms_p50", "ms"},
		{"remote.module_kb_p50", "KB"},
		{"pipeline.queue_ms_p50", "ms"},
		{"pipeline.queue_ms_p99", "ms"},
		{"pipeline.profile_cache_hit_ratio", "ratio"},
		{"pipeline.profile_cache_lookups", "count"},
		{"pipeline.busy_s_per_job", "s"},
	}
	for _, s := range stageNames {
		out = append(out, metricDef{"pipeline.stage." + s + "_ms_p50", "ms"})
	}
	return append(out, []metricDef{
		{"bytecode.compile_ms_p50", "ms"},
		{"bytecode.compile_hit_ratio", "ratio"},
		{"bytecode.compile_lookups", "count"},
		{"interp.exec_ms", "ms"},
		{"interp.instrs", "count"},
		{"interp.emit_ms", "ms"},
		{"profiler.consume_ms", "ms"},
		{"profiler.result_ms", "ms"},
		{"profiler.accesses", "count"},
		{"profiler.deps", "count"},
		{"profiler.slowdown_x", "x"},
		{"pet.tree_ms", "ms"},
		{"cu.build_ms", "ms"},
		{"discovery.analyze_ms", "ms"},
		{"discovery.suggestions", "count"},
		{"rank.rank_ms", "ms"},
		{"journal.appends_per_job", "count"},
		{"journal.bytes_per_job", "B"},
		{"journal.syncs_per_s", "1/s"},
		{"journal.compactions", "count"},
		{"journal.sync_ms_p50", "ms"},
		{"mem.pool_fresh_ratio", "ratio"},
		{"mem.pool_gets", "count"},
		{"runtime.alloc_kb_per_job", "KB"},
		{"runtime.gc_pause_ms_per_s", "ms/s"},
		{"runtime.cpu_ms_per_job", "ms"},
		{"runtime.cores_busy", "ratio"},
		{"runtime.peak_live_heap_mb", "MB"},
		{"trace.overhead_ratio", "ratio"},
		{"workload.inline_job_ratio", "ratio"},
		{"workload.inline_instr_ratio", "ratio"},
	}...)
}()

// outDir holds the traced run's output and the run's scratch journals,
// relative to the repository root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for journals, under outDir
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-cold, serve-hot or analyze-large")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	var res *result
	switch cfg.workload {
	case serveCold, serveHot:
		res, err = benchServe(cfg)
	case analyzeLarge:
		res, err = benchLarge(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", cfg.workload, serveCold, serveHot, analyzeLarge)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// finish builds the result from the computed values, which must cover
// exactly the metric list of the run's mode.
func finish(cfg config, ops *loadStats, vals map[string]float64) (*result, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if ops.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %gs", cfg.seconds)
	}
	if ops.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", ops.failed, ops.attempted, ops.firstErr)
	}
	return res, nil
}

// phase is a finished timed phase: its operations and what was measured
// around them.
type phase struct {
	ops    *loadStats
	slices []slice
	secs   float64 // until the last operation ended
	heap   []heapSample
	// retainedMB is the live heap after a GC forced at the end of the
	// phase: what stays live between jobs, the inputs and the server's
	// caches and job records (serve-*) or the library's process-wide
	// caches (analyze-large).
	retainedMB float64
	rt0, rt1   runtimeCounters
}

// measure runs the timed phase: run drives operations until the deadline
// and returns them with the time it took; slicesOf cuts the result into
// slices of per(ops) completions.
func measure(cfg config, run func(deadline time.Time) (*loadStats, time.Duration, error), per func(*loadStats) int) (*phase, error) {
	runtime.GC()
	rt0 := readRuntime()
	heap := startHeapSampler()
	start, cpu0 := time.Now(), cpuNow()
	ops, d, err := run(start.Add(time.Duration(cfg.seconds * float64(time.Second))))
	hs := heap.Stop()
	if err != nil {
		return nil, err
	}
	p := &phase{ops: ops, secs: d.Seconds(), heap: hs, rt0: rt0, rt1: readRuntime()}
	// Two cycles: the first moves sync.Pool contents (the interpreter's
	// recycled arenas among them) to the pools' victim caches, the second
	// frees them, so how full the pools happened to be does not count.
	runtime.GC()
	runtime.GC()
	p.retainedMB = liveHeap() / (1 << 20)
	p.slices = slicesOf(ops.done, cpu0, per(ops))
	fmt.Printf("workload %s seed %d: %d ok of %d in %.2fs, %.2fs CPU (latency samples %d, %.2f cores busy)\n",
		cfg.workload, cfg.seed, len(ops.lat), ops.attempted, p.secs, (p.rt1.cpu - p.rt0.cpu).Seconds(),
		len(ops.lat), p.coresBusy())
	fmt.Printf("wall clock: %.4g jobs/s, latency p50 %.4g ms, p99 %.4g ms\n",
		float64(len(ops.lat))/p.secs, quantile(ops.lat, 0.5), quantile(ops.lat, 0.99))
	return p, nil
}

func (p *phase) coresBusy() float64 { return (p.rt1.cpu - p.rt0.cpu).Seconds() / p.secs }

// endToEnd returns the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setupS,
		"jobs_per_cpu_s":   medianRate(p.slices, jobsOf),
		"job_cpu_ms_p50":   quantile(p.ops.cpuLat, 0.5),
		"job_cpu_ms_p99":   quantile(p.ops.cpuLat, 0.99),
		"instrs_per_cpu_s": medianRate(p.slices, instrsOf),
		"ok_ratio":         1 - ratio(float64(p.ops.failed), float64(p.ops.attempted)),
		"retained_heap_mb": p.retainedMB,
	}
}

// layers returns the per-layer metrics every workload measures the same
// way; jobs is the per-job base.
func (p *phase) layers(jobs float64) map[string]float64 {
	out := map[string]float64{
		"runtime.peak_live_heap_mb":   slicePeakMB(p.slices, p.heap),
		"client.jobs_per_s":           float64(len(p.ops.lat)) / p.secs,
		"client.latency_p50_ms":       quantile(p.ops.lat, 0.5),
		"client.latency_p99_ms":       quantile(p.ops.lat, 0.99),
		"runtime.cores_busy":          p.coresBusy(),
		"server.latency_samples":      float64(len(p.ops.lat)),
		"runtime.alloc_kb_per_job":    ratio((p.rt1.allocBytes-p.rt0.allocBytes)/1024, jobs),
		"runtime.gc_pause_ms_per_s":   (p.rt1.pauseNs - p.rt0.pauseNs) / 1e6 / p.secs,
		"runtime.cpu_ms_per_job":      ratio(ms(p.rt1.cpu-p.rt0.cpu), jobs),
		"workload.inline_job_ratio":   ratio(p.ops.bySource[reqInline].jobs, float64(len(p.ops.lat))),
		"workload.inline_instr_ratio": ratio(p.ops.bySource[reqInline].instrs, p.ops.instrs()),
	}
	for _, s := range stageNames {
		out["pipeline.stage."+s+"_ms_p50"] = median(p.ops.stages[s])
	}
	return out
}

func benchServe(cfg config) (*result, error) {
	keys := hotSet(cfg.seed)
	if cfg.workload == serveCold {
		keys = coldPool()
	}
	refs, err := references(keys)
	if err != nil {
		return nil, err
	}
	ss, err := newServeSetups(cfg.workload, cfg.seed, cfg.work)
	if err != nil {
		return nil, err
	}
	su, err := ss.run(setupReps/2, true)
	if err != nil {
		return nil, err
	}
	env := su.env
	defer env.close()

	before, err := env.scrape()
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	p, err := measure(cfg, func(deadline time.Time) (*loadStats, time.Duration, error) {
		return runLoad(env, su.stream, &next, refs, deadline, cfg.trace)
	}, func(ops *loadStats) int { return len(ops.done) / phaseSlices })
	if err != nil {
		return nil, err
	}
	after, err := env.scrape()
	if err != nil {
		return nil, err
	}
	d := after.diff(before)
	inline := p.ops.bySource[reqInline]
	fmt.Printf("mix: inline nests %.1f%% of jobs, %.1f%% of instructions; request generation %.2f%% of the timed phase\n",
		100*ratio(inline.jobs, float64(len(p.ops.lat))), 100*ratio(inline.instrs, p.ops.instrs()), 100*p.ops.genS/p.secs)
	fmt.Printf("rejected by reason: [%s]\n", d.labeled("dp_jobs_rejected_total"))
	if !cfg.trace {
		// setup_s is an end-to-end metric, so only an untraced run sets
		// up again after its timed phase.
		if err := env.close(); err != nil {
			return nil, err
		}
		if _, err := ss.run(setupReps-setupReps/2, false); err != nil {
			return nil, err
		}
		return finish(cfg, p.ops, p.endToEnd(ss.times.cpuMedian()))
	}
	completed := d["dp_jobs_completed_total"]
	hits, misses := d["dp_profile_cache_hits_total"], d["dp_profile_cache_misses_total"]
	chits, cmisses := d["dp_compile_cache_hits_total"], d["dp_compile_cache_misses_total"]
	layer := p.layers(completed)
	for k, v := range map[string]float64{
		"server.submit_ms_p50":             median(p.ops.submit),
		"server.rejected":                  d["dp_jobs_rejected_total"],
		"pipeline.queue_ms_p50":            quantile(p.ops.queue, 0.5),
		"pipeline.queue_ms_p99":            quantile(p.ops.queue, 0.99),
		"pipeline.profile_cache_hit_ratio": ratio(hits, hits+misses),
		"pipeline.profile_cache_lookups":   hits + misses,
		"pipeline.busy_s_per_job":          ratio(d["dp_busy_seconds_total"], completed),
		"bytecode.compile_hit_ratio":       ratio(chits, chits+cmisses),
		"bytecode.compile_lookups":         chits + cmisses,
		"journal.appends_per_job":          ratio(d["dp_journal_appends_total"], completed),
		"journal.bytes_per_job":            ratio(d["dp_journal_bytes_total"], completed),
		"journal.syncs_per_s":              d["dp_journal_syncs_total"] / p.secs,
		"journal.compactions":              d["dp_journal_compactions_total"],
		"mem.pool_fresh_ratio":             ratio(d["dp_pool_fresh_total"], d["dp_pool_gets_total"]),
		"mem.pool_gets":                    d["dp_pool_gets_total"],
	} {
		layer[k] = v
	}
	fmt.Printf("stage seconds (dp_stage_seconds_total diff): %s\n", d.labeled("dp_stage_seconds_total"))
	if err := env.close(); err != nil {
		return nil, err
	}
	items := registryItems(keys, refs)
	if cs, ok := su.stream.(*coldStream); ok {
		nests, err := cs.firstInline()
		if err != nil {
			return nil, err
		}
		for _, req := range nests {
			items = append(items, inlineItem(req))
		}
	}
	if err := traced(cfg, items, p.ops.traces, layer); err != nil {
		return nil, err
	}
	return finish(cfg, p.ops, layer)
}

func benchLarge(cfg config) (*result, error) {
	keys := largeOrder(cfg.seed)
	refs, err := references(keys)
	if err != nil {
		return nil, err
	}
	var times setupTimes
	progs, err := setupLarge(cfg.seed, setupReps/2, &times)
	if err != nil {
		return nil, err
	}
	// No /metrics here: the process-wide compile cache and arena pool are
	// read directly.
	h0, m0, _ := bytecode.Shared.Stats()
	pool0 := mem.Default.Stats()
	p, err := measure(cfg, func(deadline time.Time) (*loadStats, time.Duration, error) {
		t0 := time.Now()
		return runLarge(progs, refs, deadline), time.Since(t0), nil
	}, func(*loadStats) int { return len(progs) })
	if err != nil {
		return nil, err
	}
	h1, m1, _ := bytecode.Shared.Stats()
	pool1 := mem.Default.Stats()
	if !cfg.trace {
		if _, err := setupLarge(cfg.seed, setupReps-setupReps/2, &times); err != nil {
			return nil, err
		}
		return finish(cfg, p.ops, p.endToEnd(times.cpuMedian()))
	}
	var busy float64
	for _, l := range p.ops.lat {
		busy += l / 1000
	}
	jobs := float64(len(p.ops.lat))
	layer := p.layers(jobs)
	// The library path has no HTTP server, queue, profile cache or journal:
	// those layers' metrics read 0 here (journal.sync_ms_p50 still comes
	// from the replay's probe).
	for k, v := range map[string]float64{
		"server.submit_ms_p50":             0,
		"server.rejected":                  0,
		"pipeline.queue_ms_p50":            0,
		"pipeline.queue_ms_p99":            0,
		"pipeline.profile_cache_hit_ratio": 0,
		"pipeline.profile_cache_lookups":   0,
		"pipeline.busy_s_per_job":          ratio(busy, jobs),
		"bytecode.compile_hit_ratio":       ratio(float64(h1-h0), float64(h1-h0+m1-m0)),
		"bytecode.compile_lookups":         float64(h1 - h0 + m1 - m0),
		"journal.appends_per_job":          0,
		"journal.bytes_per_job":            0,
		"journal.syncs_per_s":              0,
		"journal.compactions":              0,
		"mem.pool_fresh_ratio":             ratio(float64(pool1.Fresh-pool0.Fresh), float64(pool1.Gets-pool0.Gets)),
		"mem.pool_gets":                    float64(pool1.Gets - pool0.Gets),
	} {
		layer[k] = v
	}
	items := registryItems(keys, refs)
	if err := traced(cfg, items, nil, layer); err != nil {
		return nil, err
	}
	return finish(cfg, p.ops, layer)
}

// traced runs the layer replay over items, adds its metrics to layer, and
// writes the run's spans (timed-phase traces plus the replay) as Chrome
// trace JSON and the per-program layer times as JSON under outDir.
func traced(cfg config, items []replayItem, traces []*obs.Trace, layer map[string]float64) error {
	rm, lts, rt, err := replay(items, cfg.work)
	if err != nil {
		return err
	}
	for k, v := range rm {
		layer[k] = v
	}
	all := mergeTraces(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed), append(traces, rt))
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeTrace(path, all); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans -> %s; replay of %d programs, recorded reps %+.2f%% over unrecorded\n",
		len(all.Spans), path, len(items), 100*rm["trace.overhead_ratio"])
	printSelfTimes(selfTimes(all))
	type programRow struct {
		Program   string             `json:"program"`
		SlowdownX float64            `json:"slowdown_x"`
		LayerMS   map[string]float64 `json:"layer_ms"`
	}
	rows := make([]programRow, len(lts))
	for i, lt := range lts {
		rows[i] = programRow{lt.key, lt.slowdown(), lt.ms}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Program < rows[j].Program })
	if cfg.workload == analyzeLarge {
		// The paper's Fig 2.9 metric per program, reported, not gated.
		for _, r := range rows {
			fmt.Printf("slowdown_x %-18s %6.2f\n", r.Program, r.SlowdownX)
		}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("layers-%s-seed%d.json", cfg.workload, cfg.seed)), b, 0o644)
}
