package profiler

import (
	"discopop/internal/ir"
	"discopop/internal/sig"
)

// engine executes the signature-based dependence-detection algorithm
// (Algorithm 2) over a stream of access records. One engine exists per
// worker thread (or one in total for serial profiling); each owns a read
// signature, a write signature, and a thread-local dependence table, exactly
// as in Figure 2.2.
//
// The engine is generic over the concrete store type: the per-access
// Get/Put/Remove calls of the hot loop compile to direct (inlinable) calls
// into sig.Perfect or sig.Signature instead of dynamic dispatch through the
// sig.Store interface — three interface calls per load and four per store
// in the seed implementation. The stores are embedded by value so each
// store kind gets its own instantiation (distinct gcshapes) and the engine,
// its stores, and its skip state share one allocation.

// Access-record kinds.
const (
	recLoad uint8 = iota
	recStore
	recRemove // variable lifetime analysis: drop status of addr
	recMigOut // redistribution: extract and clear status of addr
	recMigIn  // redistribution: install migrated status of addr
)

// rec is one access record as the worker pipes transport it in chunks and
// queues; engine.process unpacks it into the scalar load/store calls.
type rec struct {
	addr uint64
	info uint64 // packed sink location/variable/thread
	ts   uint64
	op   int32
	ctx  int32
	kind uint8
	mig  *migration
}

// migration carries per-address signature state between workers when the
// load balancer reassigns a hot address (Section 2.3.3).
type migration struct {
	read, write sig.Entry
	done        chan struct{}
}

// rec.info is an access's packed sink identity: file(10) | line(22) |
// var(16) | thread(8) | 0(8), as events deliver it. The file field is
// always >= 1, so packed info is non-zero and a zero sig.Entry means
// "empty". The layout is owned by bytecode.PackSink so the compiler can
// bake the static half into per-pc operand tables.

func unpackLoc(info uint64) ir.Loc {
	return ir.Loc{File: int32(info >> 54), Line: int32((info >> 32) & 0x3FFFFF)}
}

func unpackVar(info uint64) int32    { return int32((info >> 16) & 0xFFFF) }
func unpackThread(info uint64) int16 { return int16((info >> 8) & 0xFF) }

// opSkip is the per-memory-operation state of the skipping optimization:
// lastAddr plus the lastStatusRead/lastStatusWrite accessInfo values
// (Section 2.4). The zero value is the "never profiled" initial state,
// because address 0 is never used by target programs.
//
// Beyond the paper's two conditions we also remember how the dependences
// the operation last built were classified w.r.t. loop carrying
// (lastRCarry/lastWCarry): our dependence identity includes the carrying
// loop, which the paper's 3-byte status slots cannot express, so skipping
// must additionally require that re-profiling would yield the same
// classification. In steady state the classification is stable, so skip
// rates are unaffected.
type opSkip struct {
	lastAddr   uint64
	lastR      int32
	lastW      int32
	lastRCarry int32
	lastWCarry int32
	// lastOrder records whether the read status predated the write status
	// (re.TS < we.TS): WAW dependences are built only for consecutive
	// writes, so their existence depends on this order, not just on which
	// operations the statuses name.
	lastOrder bool
}

// opLayout maps static memory-operation IDs — positive ref/parameter ops
// and the synthetic negative loop-header ops — into one dense index space:
// positive op o at index o, negative op -k at index nPosOps+k. It is the
// single source of truth for this layout, shared by the skip engine's
// per-op state and the profiler's line counters.
type opLayout struct {
	nPosOps int32
}

func newOpLayout(nOps int32) opLayout { return opLayout{nPosOps: nOps + 1} }

func (l opLayout) index(op int32) int32 {
	if op >= 0 {
		return op
	}
	return l.nPosOps + (-op)
}

// size returns the dense slice length covering nOps positive ops plus
// nRegionOps synthetic negative ops.
func (l opLayout) size(nRegionOps int32) int { return int(l.nPosOps) + int(nRegionOps) + 1 }

// storeOps constrains PS to "pointer to concrete store type S" with the
// per-access operations, so that a generic engine instantiated for S calls
// them directly.
type storeOps[S any] interface {
	*S
	Get(addr uint64) sig.Entry
	Put(addr uint64, e sig.Entry)
	GetSet(addr uint64, e sig.Entry) sig.Entry
	Remove(addr uint64)
	MemBytes() int64
}

// engineDump is the non-generic view of a finished engine that Result
// merges: the packed dependence table, the skip counters, and the store
// footprint.
type engineDump struct {
	deps  *depTable
	stats *SkipStats
	bytes int64
}

type engine[S any, PS storeOps[S]] struct {
	readS  S
	writeS S
	deps   depTable
	tab    *ctxTable
	mt     bool

	// cc memoizes carriedBy results per (sink ctx, source ctx) pair in a
	// small direct-mapped cache: consecutive accesses of a loop repeat the
	// same few context pairs, and the LCA climb is a pointer chase per
	// level. Context nodes are append-only and immutable, so entries never
	// go stale; the cache is engine-local, so no synchronization is needed.
	cc [carryCacheSize]carryMemo

	// Skip optimization (enabled when ops != nil), indexed via lay.
	ops   []opSkip
	lay   opLayout
	stats SkipStats
}

const carryCacheSize = 256

// carryMemo is one carriedBy cache entry. The zero value is safe: it only
// matches the query (0, 0), for which carried == false is the right answer
// (equal contexts are never loop-carried) and reg is then ignored.
type carryMemo struct {
	a, b, reg int32
	carried   bool
}

// carried is carriedBy through the engine's memo cache.
func (e *engine[S, PS]) carried(a, b int32) (int32, bool) {
	m := &e.cc[(uint32(a)*0x9E3779B9+uint32(b))&(carryCacheSize-1)]
	if m.a != a || m.b != b {
		reg, ok := e.tab.carriedBy(a, b)
		*m = carryMemo{a: a, b: b, reg: reg, carried: ok}
	}
	return m.reg, m.carried
}

func newEngine[S any, PS storeOps[S]](readS, writeS S, tab *ctxTable, mt bool, skipOps, skipRegions int32) *engine[S, PS] {
	e := &engine[S, PS]{
		readS:  readS,
		writeS: writeS,
		deps:   newDepTable(),
		tab:    tab,
		mt:     mt,
	}
	if skipOps > 0 || skipRegions > 0 {
		e.lay = newOpLayout(skipOps)
		e.ops = make([]opSkip, e.lay.size(skipRegions))
	}
	return e
}

func (e *engine[S, PS]) rd() PS { return PS(&e.readS) }
func (e *engine[S, PS]) wr() PS { return PS(&e.writeS) }

// dump exposes the engine's merge-time products.
func (e *engine[S, PS]) dump() engineDump {
	return engineDump{deps: &e.deps, stats: &e.stats,
		bytes: e.rd().MemBytes() + e.wr().MemBytes()}
}

// depsMap materializes the packed dependence table (tests and single-engine
// inspection).
func (e *engine[S, PS]) depsMap() map[Dep]int64 { return e.deps.materialize() }

// addDep builds and merges one dependence with the sink identity (info,
// ctx, ts) of the current access and source from the signature entry src.
// The dependence's variable is the one accessed at the sink: the sink
// access knows its variable exactly, whereas the source's identity comes
// from the (possibly aliased) signature slot — attributing the variable
// from the sink is what keeps signature false positives bounded by
// line-pair combinations rather than by colliding address pairs (compare
// Figure 2.1: "1:65 NOM {WAR 1:67|temp2}" names temp2, the variable
// written at the 1:65 sink).
//
// The dependence identity is assembled directly from the packed access
// info words — the sink/source location halves are single shifts of
// info/src.Info — and merged into the packed accumulator; no Dep struct
// or map insert exists on this path.
func (e *engine[S, PS]) addDep(t DepType, info uint64, ctx int32, ts uint64, src sig.Entry) {
	hi := info &^ 0xFFFFFFFF // sink file|line in the upper half
	lo := uint64(t) << depTypeShift
	if t != INIT {
		hi |= src.Info >> 32 // source file|line in the lower half
		lo |= (info >> 16 & 0xFFFF) << depVarShift
		if e.mt {
			lo |= depHasThrBit |
				(info>>8&0xFF)<<depSinkThrShift |
				(src.Info>>8&0xFF)<<depSrcThrShift
		}
		if carriedRegion, carried := e.carried(ctx, src.Ctx); carried {
			lo |= depCarriedBit | uint64(uint32(carriedRegion+1))&depCarryMask
		}
		if ts < src.TS {
			// The sink was observed before its source: the accesses were
			// not mutually exclusive — a potential data race (§2.3.4).
			lo |= depReversedBit
		}
	}
	e.deps.add(hi, lo, 1)
}

// process applies one pipeline access record to the engine.
func (e *engine[S, PS]) process(r *rec) {
	switch r.kind {
	case recLoad:
		e.load(r.addr, r.info, r.ts, r.op, r.ctx)
	case recStore:
		e.store(r.addr, r.info, r.ts, r.op, r.ctx)
	case recRemove:
		e.rd().Remove(r.addr)
		e.wr().Remove(r.addr)
	case recMigOut:
		r.mig.read = e.rd().Get(r.addr)
		r.mig.write = e.wr().Get(r.addr)
		e.rd().Remove(r.addr)
		e.wr().Remove(r.addr)
		close(r.mig.done)
	case recMigIn:
		if !r.mig.read.Empty() {
			e.rd().Put(r.addr, r.mig.read)
		}
		if !r.mig.write.Empty() {
			e.wr().Put(r.addr, r.mig.write)
		}
	}
}

// load implements the read half of Algorithm 2 for the access (addr, op)
// with packed sink identity info, iteration context ctx and timestamp ts.
// With skip state (e.ops != nil), skipRead may handle the read whole.
func (e *engine[S, PS]) load(addr, info, ts uint64, op, ctx int32) {
	e.stats.Reads++
	we := e.wr().Get(addr)
	cur := sig.Entry{Info: info, Ctx: ctx, Op: op, TS: ts}
	if e.ops != nil && e.skipRead(addr, cur, we) {
		return
	}
	if !we.Empty() {
		e.stats.DepReads++
		e.addDep(RAW, info, ctx, ts, we)
	}
	e.rd().Put(addr, cur)
}

// skipRead applies the read skip conditions of Section 2.4 to the access
// cur at addr, given the write status we. A read is skipped iff its
// operation's lastAddr matches and the shadow statusRead/statusWrite equal
// the operation's remembered lastStatusRead/lastStatusWrite; skipRead then
// counts it, records it in the read status (unless that would re-record
// the same operation in the same iteration context, §2.4.3) and reports
// true. Otherwise it remembers the statuses just observed and reports
// false, and load profiles the read. The rd-side Get happens only here:
// without skip state the read status is never consulted.
func (e *engine[S, PS]) skipRead(addr uint64, cur, we sig.Entry) bool {
	re := e.rd().Get(addr)
	st := &e.ops[e.lay.index(cur.Op)]
	wc := e.carryRegion(cur.Ctx, we.Ctx, !we.Empty())
	if st.lastAddr != addr || st.lastR != re.Op || st.lastW != we.Op || st.lastWCarry != wc {
		st.lastAddr, st.lastR, st.lastW, st.lastWCarry = addr, re.Op, we.Op, wc
		return false
	}
	e.stats.SkippedReads++
	if !we.Empty() {
		e.stats.DepReads++
		e.stats.SkippedDepReads++
		e.stats.WouldRAW++
	}
	if re.Op == cur.Op && re.Ctx == cur.Ctx {
		e.stats.ShadowSkips++
	} else {
		e.rd().Put(addr, cur)
	}
	return true
}

// carryRegion returns the carrying-loop region of a would-be dependence
// between the current context and a status entry's context (-1 when not
// carried or the entry is empty, -2 sentinel never used).
func (e *engine[S, PS]) carryRegion(cur, src int32, present bool) int32 {
	if !present {
		return -1
	}
	reg, carried := e.carried(cur, src)
	if !carried {
		return -1
	}
	return reg
}

// store implements the write half of Algorithm 2. Following the evaluation
// setup (Section 2.5.2), a WAW dependence is built only for consecutive
// writes to the same address, i.e. when no read intervened. Without skip
// state the old write status is read and immediately overwritten, so
// Get+Put fuse into one probe sequence; with it, skipWrite records the
// write and may handle it whole.
func (e *engine[S, PS]) store(addr, info, ts uint64, op, ctx int32) {
	e.stats.Writes++
	re := e.rd().Get(addr)
	cur := sig.Entry{Info: info, Ctx: ctx, Op: op, TS: ts}
	var we sig.Entry
	if e.ops == nil {
		we = e.wr().GetSet(addr, cur)
	} else if we = e.wr().Get(addr); e.skipWrite(addr, cur, re, we) {
		return
	}
	if we.Empty() {
		e.addDep(INIT, info, ctx, ts, we)
		return
	}
	e.stats.DepWrites++
	if !re.Empty() {
		e.addDep(WAR, info, ctx, ts, re)
	}
	if re.Empty() || re.TS < we.TS {
		e.addDep(WAW, info, ctx, ts, we)
	}
}

// skipWrite is skipRead's write counterpart: the operation's remembered
// statuses, their loop-carry classification and their order must all
// match for the write to be skipped. Unlike skipRead it also records a
// profiled write in the write status, since store has no Put of its own
// on the skip-state path.
func (e *engine[S, PS]) skipWrite(addr uint64, cur, re, we sig.Entry) bool {
	st := &e.ops[e.lay.index(cur.Op)]
	rc := e.carryRegion(cur.Ctx, re.Ctx, !re.Empty())
	wc := e.carryRegion(cur.Ctx, we.Ctx, !we.Empty())
	order := re.TS < we.TS
	if st.lastAddr != addr || st.lastR != re.Op || st.lastW != we.Op ||
		st.lastRCarry != rc || st.lastWCarry != wc || st.lastOrder != order {
		*st = opSkip{lastAddr: addr, lastR: re.Op, lastW: we.Op,
			lastRCarry: rc, lastWCarry: wc, lastOrder: order}
		e.wr().Put(addr, cur)
		return false
	}
	e.stats.SkippedWrite++
	if !we.Empty() {
		e.stats.DepWrites++
		e.stats.SkippedDepWrite++
		if !re.Empty() {
			e.stats.WouldWAR++
		}
		if re.Empty() || order {
			e.stats.WouldWAW++
		}
	}
	if we.Op == cur.Op && we.Ctx == cur.Ctx {
		e.stats.ShadowSkips++
	} else {
		e.wr().Put(addr, cur)
	}
	return true
}
