package bytecode

import (
	"time"

	"discopop/internal/ir"
	"discopop/internal/lru"
)

// Cache memoizes compiled Programs, keyed by module content-hash. It sits
// alongside pipeline.ProfileCache in the service stack but one level
// lower: the profile cache memoizes whole instrumented runs per (cache
// key, options) pair, while this cache memoizes the compilation itself, so
// content-identical modules arriving under different job keys (rebuilt
// workloads, repeated inline submissions, different thread configs) still
// compile exactly once. Concurrent misses on one hash coalesce, and the
// entry count is LRU-bounded (see lru.Cache).
type Cache struct {
	c *lru.Cache[[32]byte, compiled]
}

type compiled struct {
	prog *Program
	dur  time.Duration
}

// DefaultCacheEntries bounds the shared compile cache: far above the
// bundled workload registry, small enough that a long-lived engine holds a
// bounded set of compiled programs.
const DefaultCacheEntries = 256

// Shared is the process-wide compile cache used by interp.New unless a
// program or the tree walker is selected explicitly.
var Shared = NewCache(DefaultCacheEntries)

// NewCache returns an empty cache evicting least-recently-used completed
// entries beyond max (0 = unbounded).
func NewCache(max int) *Cache {
	return &Cache{lru.New[[32]byte, compiled](max)}
}

// Get returns the compiled program for m, compiling it on first sight. The
// hit flag reports whether compilation was skipped; dur is the compile
// time actually spent by this call (zero on a hit).
func (c *Cache) Get(m *ir.Module) (prog *Program, hit bool, dur time.Duration) {
	v, hit := c.c.Get(ModuleHash(m), func() compiled {
		start := time.Now()
		p := Compile(m)
		return compiled{p, time.Since(start)}
	})
	if !hit {
		dur = v.dur
	}
	return v.prog, hit, dur
}

// Stats returns the hit/miss counters and the live entry count.
func (c *Cache) Stats() (hits, misses int64, entries int) { return c.c.Stats() }

// Evictions returns the number of entries dropped by the LRU bound.
func (c *Cache) Evictions() int64 { return c.c.Evictions() }
