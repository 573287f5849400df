package profiler

import (
	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/sig"
)

// StoreKind selects the access-status representation.
type StoreKind uint8

const (
	// StorePerfect uses the exact per-address table ("perfect signature"):
	// no false positives or negatives, higher memory cost (Section 2.3.7).
	StorePerfect StoreKind = iota
	// StoreSignature uses fixed-size approximate signatures (Section 2.3.2).
	StoreSignature
)

// Options configures a profiling run.
type Options struct {
	Store StoreKind
	// Slots is the total number of signature slots, split evenly across
	// workers and across the read/write signature pair (Section 2.5.2
	// splits 1.0E+8 total slots over 16 threads the same way).
	Slots int
	// Skip enables the loop-skipping optimization of Section 2.4.
	Skip bool
	// Workers > 0 enables the parallel pipeline of Section 2.3.3 with that
	// many worker threads; 0 profiles serially in the event callbacks.
	Workers int
	// UseLocked replaces the lock-free queues with mutex-protected ones —
	// the lock-based baseline of Figure 2.9.
	UseLocked bool
	// MT enables the multi-threaded-target pipeline of Section 2.3.4
	// (per-target-thread producers feeding MPSC worker queues).
	MT bool
	// ChunkSize is the number of access records per chunk (default 1024).
	ChunkSize int
	// RebalanceInterval is the number of pushed chunks between load
	// rebalancing checks (default 2000; the paper uses 50000 at its much
	// larger workload scale). 0 disables redistribution.
	RebalanceInterval int
	// TreeWalk runs the target on the reference tree-walking engine
	// instead of the bytecode VM. The event streams are identical; the
	// walker is kept for differential testing and debugging.
	TreeWalk bool
}

func (o *Options) defaults() {
	if o.ChunkSize == 0 {
		o.ChunkSize = 1024
	}
	if o.Slots == 0 {
		o.Slots = 1 << 22
	}
	if o.RebalanceInterval == 0 {
		o.RebalanceInterval = 2000
	}
}

// Profiler is an interp.Tracer that profiles data dependences. Use New,
// pass it to interp.New, run the program, then call Result.
type Profiler struct {
	mod *ir.Module
	opt Options

	tab       *ctxTable
	cur       [interp.MaxThreads]int32
	loopStack [interp.MaxThreads][]int32

	regions map[int]*RegionExec
	funcs   map[*ir.Func]int64
	depth   [interp.MaxThreads]int
	total   int64

	// Per-line access counting, hot-path form: a dense counter slice
	// indexed by static memory-operation ID (the opLayout the skip
	// optimization also uses) instead of a per-access map write. opLocs
	// remembers each operation's access location on first touch; Result
	// folds the counters back into the per-line map. spillLines catches
	// the pathological case of an expression node shared between
	// statements (one op observed at two locations).
	lay        opLayout
	lineCounts []int64
	opLocs     []ir.Loc
	spillLines map[ir.Loc]int64

	// Serial mode holds the engine with its concrete store type so the
	// per-access process call (and everything it inlines) is direct.
	// Exactly one of engP/engS is non-nil in serial mode.
	engP *engine[sig.Perfect, *sig.Perfect]
	engS *engine[sig.Signature, *sig.Signature]

	par balancedPipe // sequential-target parallel mode
	mtp barrierPipe  // multi-threaded-target mode

	stopped bool
	dumps   []engineDump

	accesses int64

	// recbuf is the reusable access-record buffer of the pipeline modes:
	// one chunk's loads/stores/removes accumulate here and reach the pipe
	// as a whole.
	recbuf []rec
	// ts is the logical clock: events carry no timestamp (the clock ticks
	// exactly once per access, in stream order), so the consumer counts the
	// accesses itself.
	ts uint64
}

// pipe is the non-generic control seam of the worker pipelines: the
// producer-side hot call plus the merge-time teardown.
type pipe interface {
	produceBatch(rs []rec)
	finish() []engineDump
}

// balancedPipe is the sequential-target pipeline (load balancing).
type balancedPipe interface {
	pipe
	rebalanceCount() int
}

// barrierPipe is the multi-threaded-target pipeline (lock barriers).
type barrierPipe interface {
	pipe
	barrier()
}

// New creates a profiler for module m. The module's static memory
// operations are numbered as a side effect.
func New(m *ir.Module, opt Options) *Profiler {
	opt.defaults()
	p := &Profiler{mod: m, opt: opt, tab: &ctxTable{},
		regions: map[int]*RegionExec{}, funcs: map[*ir.Func]int64{}}
	for i := range p.cur {
		p.cur[i] = -1
	}
	nOps := interp.PrepareOps(m)
	// Loop headers use four synthetic negative op IDs per region.
	nRegions := 4*int32(len(m.Regions)) + 4
	p.lay = newOpLayout(nOps)
	p.lineCounts = make([]int64, p.lay.size(nRegions))
	p.opLocs = make([]ir.Loc, len(p.lineCounts))
	// One instantiation per store kind: every engine below this switch
	// calls its stores directly.
	if opt.Store == StoreSignature {
		switch {
		case opt.MT:
			p.mtp = newMTPipe[sig.Signature](p, p.sigPair, nOps, nRegions)
		case opt.Workers > 0:
			p.par = newParallelPipe[sig.Signature](p, p.sigPair, nOps, nRegions)
		default:
			rd, wr := p.sigPair(1)
			p.engS = newEngine[sig.Signature](rd, wr, p.tab, opt.MT, p.skipOps(nOps), p.skipRegions(nRegions))
		}
	} else {
		switch {
		case opt.MT:
			p.mtp = newMTPipe[sig.Perfect](p, perfectPair, nOps, nRegions)
		case opt.Workers > 0:
			p.par = newParallelPipe[sig.Perfect](p, perfectPair, nOps, nRegions)
		default:
			p.engP = newEngine[sig.Perfect](sig.MakePerfect(), sig.MakePerfect(), p.tab, opt.MT, p.skipOps(nOps), p.skipRegions(nRegions))
		}
	}
	return p
}

// sigPair builds one worker's signature pair, sized as an equal share of
// the configured total slots across nshares workers.
func (p *Profiler) sigPair(nshares int) (sig.Signature, sig.Signature) {
	per := p.opt.Slots / (2 * nshares)
	if per < 16 {
		per = 16
	}
	return sig.MakeSignature(per), sig.MakeSignature(per)
}

// perfectPair builds one worker's exact-store pair (nshares is irrelevant:
// perfect signatures grow on demand).
func perfectPair(int) (sig.Perfect, sig.Perfect) {
	return sig.MakePerfect(), sig.MakePerfect()
}

// skipOps/skipRegions gate the skip optimization's per-op state sizing on
// Options.Skip.
func (p *Profiler) skipOps(nOps int32) int32 {
	if !p.opt.Skip {
		return 0
	}
	return nOps
}

func (p *Profiler) skipRegions(nRegions int32) int32 {
	if !p.opt.Skip {
		return 0
	}
	return nRegions
}

// countLine counts one access against its source line. The common path is
// one dense-slice increment; the first access of each operation records
// its location, and the (never-expected) case of one operation observed at
// two locations spills to a map.
func (p *Profiler) countLine(op int32, loc ir.Loc) {
	i := p.lay.index(op)
	if p.opLocs[i] != loc {
		if p.opLocs[i].File != 0 {
			if p.spillLines == nil {
				p.spillLines = map[ir.Loc]int64{}
			}
			p.spillLines[loc]++
			return
		}
		p.opLocs[i] = loc
	}
	p.lineCounts[i]++
}

// enterRegion counts a region entry and, for a loop, saves the thread's
// context so exitRegion can restore it.
func (p *Profiler) enterRegion(r *ir.Region, tid int32) {
	re := p.regions[r.ID]
	if re == nil {
		re = &RegionExec{Region: r}
		p.regions[r.ID] = re
	}
	re.Entries++
	if r.Kind == ir.RLoop {
		p.loopStack[tid] = append(p.loopStack[tid], p.cur[tid])
	}
}

// loopIter advances the thread's loop context to a fresh (region,
// iteration) node.
func (p *Profiler) loopIter(r *ir.Region, iter int64, tid int32) {
	ls := p.loopStack[tid]
	parent := int32(-1)
	if len(ls) > 0 {
		parent = ls[len(ls)-1]
	}
	p.cur[tid] = p.tab.add(parent, int32(r.ID), iter)
}

func (p *Profiler) exitRegion(r *ir.Region, iters, instrs int64, tid int32) {
	re := p.regions[r.ID]
	re.Iters += iters
	re.Instrs += instrs
	if r.Kind == ir.RLoop {
		ls := p.loopStack[tid]
		p.cur[tid] = ls[len(ls)-1]
		p.loopStack[tid] = ls[:len(ls)-1]
	}
}

// exitFunc accumulates per-function inclusive instruction counts, which
// feed the instruction-coverage ranking metric.
func (p *Profiler) exitFunc(f *ir.Func, instrs int64, tid int32) {
	p.funcs[f] += instrs
	p.depth[tid]--
	if p.depth[tid] == 0 {
		p.total += instrs
	}
}

// ProcessBatch implements interp.Tracer: one pass over a flushed event
// chunk. Access records take the packed sink word verbatim from the event
// (the VM's compile-time operand tables built it already), so the per-access
// path is a couple of dense-slice updates plus the engine's own work. In
// serial mode each access is handed straight to the devirtualized engine
// as scalars; pipeline modes accumulate records into recbuf and route them
// as whole chunks, which the workers unpack into the same engine calls.
// Bookkeeping (contexts, region metrics, line counters, MT barriers) is
// updated inline in stream order.
func (p *Profiler) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	switch {
	case p.engP != nil:
		batchSerial(p, p.engP, m, evs)
	case p.engS != nil:
		batchSerial(p, p.engS, m, evs)
	default:
		p.batchPipe(m, evs)
	}
}

// batchSerial consumes one event chunk directly into a serial engine: no
// intermediate record buffer, and the load/store calls name the concrete
// store type.
func batchSerial[S any, PS storeOps[S]](p *Profiler, e *engine[S, PS], m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		ev := &evs[i]
		// The kind and thread ride in Sink's low 16 bits; the engine takes
		// the word with the kind byte cleared, which is exactly the packed
		// sink identity of the access (EvLoad's kind byte is zero already).
		switch kind := uint8(ev.Sink); kind {
		case interp.EvLoad:
			p.accesses++
			p.ts++
			p.countLine(ev.A, ev.Loc)
			e.load(ev.Addr, ev.Sink, p.ts, ev.A, p.cur[ev.Sink>>8&0xFF])
		case interp.EvStore:
			p.accesses++
			p.ts++
			p.countLine(ev.A, ev.Loc)
			e.store(ev.Addr, ev.Sink&^0xFF, p.ts, ev.A, p.cur[ev.Sink>>8&0xFF])
		case interp.EvFreeVar:
			// Variable lifetime analysis (Section 2.3.5): dead addresses
			// leave the stores so their slots can be reused without building
			// false dependences. Each removed element counts as an access.
			p.accesses += int64(ev.B)
			for j := int32(0); j < ev.B; j++ {
				e.rd().Remove(ev.Addr + uint64(j))
				e.wr().Remove(ev.Addr + uint64(j))
			}
		default:
			p.controlEv(m, ev)
		}
	}
}

// batchPipe is the pipeline-mode batch consumer: accesses and removes
// accumulate into recbuf and reach the workers as whole chunks.
func (p *Profiler) batchPipe(m *ir.Module, evs []interp.Ev) {
	rb := p.recbuf[:0]
	for i := range evs {
		ev := &evs[i]
		switch kind := uint8(ev.Sink); kind {
		case interp.EvLoad, interp.EvStore:
			p.accesses++
			p.ts++
			p.countLine(ev.A, ev.Loc)
			k := recLoad
			if kind == interp.EvStore {
				k = recStore
			}
			rb = append(rb, rec{addr: ev.Addr, info: ev.Sink &^ 0xFF, ts: p.ts,
				op: ev.A, ctx: p.cur[ev.Sink>>8&0xFF], kind: k})
		case interp.EvFreeVar:
			p.accesses += int64(ev.B) // removes count as accesses; see batchSerial
			for j := int32(0); j < ev.B; j++ {
				rb = append(rb, rec{addr: ev.Addr + uint64(j), kind: recRemove})
			}
		case interp.EvLock, interp.EvUnlock, interp.EvThreadEnd:
			// MT ordering points: everything recorded so far must reach the
			// workers before the barrier drains them (Figure 2.4c).
			if p.mtp != nil {
				rb = p.flushRecs(rb)
				p.mtp.barrier()
			}
		default:
			p.controlEv(m, ev)
		}
	}
	p.recbuf = p.flushRecs(rb)
}

// controlEv applies one non-access event's bookkeeping, shared by both batch
// consumers.
func (p *Profiler) controlEv(m *ir.Module, ev *interp.Ev) {
	tid := ev.Tid()
	switch ev.Kind() {
	case interp.EvEnterRegion:
		p.enterRegion(m.Regions[ev.A], tid)
	case interp.EvExitRegion:
		p.exitRegion(m.Regions[ev.A], int64(ev.Addr), interp.UnpackI64(ev.Loc), tid)
	case interp.EvLoopIter:
		p.loopIter(m.Regions[ev.A], int64(ev.Addr), tid)
	case interp.EvEnterFunc:
		p.depth[tid]++
	case interp.EvExitFunc:
		p.exitFunc(m.Funcs[ev.A], int64(ev.Addr), tid)
	}
}

// flushRecs hands the accumulated access records to the active worker
// pipeline and returns the emptied buffer.
func (p *Profiler) flushRecs(rb []rec) []rec {
	if len(rb) == 0 {
		return rb
	}
	if p.mtp != nil {
		p.mtp.produceBatch(rb)
	} else {
		p.par.produceBatch(rb)
	}
	return rb[:0]
}

// Stop terminates the worker pipelines (if any). It is idempotent; Result
// calls it internally. Call it directly when the profiled execution
// unwinds with a panic and no result will be produced — otherwise the
// pipeline workers' spin loops outlive the run and burn CPU for the rest
// of the process.
func (p *Profiler) Stop() { p.stop() }

// stop terminates the pipelines and returns the engines' merge-time dumps.
func (p *Profiler) stop() []engineDump {
	if p.stopped {
		return p.dumps
	}
	p.stopped = true
	switch {
	case p.mtp != nil:
		p.dumps = p.mtp.finish()
	case p.par != nil:
		p.dumps = p.par.finish()
	case p.engP != nil:
		p.dumps = []engineDump{p.engP.dump()}
	default:
		p.dumps = []engineDump{p.engS.dump()}
	}
	return p.dumps
}

// Result terminates the pipeline (if any), merges the thread-local
// dependence maps into the global map (Figure 2.2), and returns the
// profiling result.
func (p *Profiler) Result() *Result {
	lines := make(map[ir.Loc]int64)
	for i, n := range p.lineCounts {
		if n != 0 {
			lines[p.opLocs[i]] += n
		}
	}
	for loc, n := range p.spillLines {
		lines[loc] += n
	}
	res := &Result{
		Mod:         p.mod,
		Regions:     p.regions,
		Lines:       lines,
		FuncInstrs:  p.funcs,
		TotalInstrs: p.total,
		Accesses:    p.accesses,
	}
	dumps := p.stop()
	tables := make([]*depTable, len(dumps))
	for i, d := range dumps {
		tables[i] = d.deps
		res.Skip.add(d.stats)
		res.StoreBytes += d.bytes
	}
	res.Deps = mergeDepTables(tables)
	for d := range res.Deps {
		if d.Reversed {
			res.Races++
		}
	}
	return res
}

func (s *SkipStats) add(o *SkipStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.SkippedReads += o.SkippedReads
	s.SkippedWrite += o.SkippedWrite
	s.DepReads += o.DepReads
	s.DepWrites += o.DepWrites
	s.SkippedDepReads += o.SkippedDepReads
	s.SkippedDepWrite += o.SkippedDepWrite
	s.WouldRAW += o.WouldRAW
	s.WouldWAR += o.WouldWAR
	s.WouldWAW += o.WouldWAW
	s.ShadowSkips += o.ShadowSkips
}

// Profile is a convenience helper: it profiles module m with the given
// options and returns the result. The simulated address space is drawn
// from (and recycled through) the shared arena pool, so repeated profiling
// runs do not pay an arena allocation each.
func Profile(m *ir.Module, opt Options) *Result {
	p := New(m, opt)
	iopts := []interp.Option{interp.WithPool(mem.Default)}
	if opt.TreeWalk {
		iopts = append(iopts, interp.WithTreeWalk())
	}
	in := interp.New(m, p, iopts...)
	defer in.Release()
	in.Run()
	return p.Result()
}
