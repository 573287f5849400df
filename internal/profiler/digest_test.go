package profiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"discopop/internal/workloads"
)

// profilerOutputDigest is the SHA-256 of outputDigestText over the whole
// workload registry at scale 1. It pins the profiler's absolute output:
// the other profiler tests are relative (serial vs parallel, walker vs VM,
// skip vs no-skip), so a change that alters every engine path alike would
// pass them. Update it only for a deliberate change of profiler semantics,
// and say so where the change is recorded.
const profilerOutputDigest = "ee314d4015798d44e5e69d060df12685d26f381a92901e99181d57c568c69b0a"

// digestOptions are the option sets the digest covers: both store kinds,
// skipping on and off, and the parallel pipeline.
var digestOptions = []struct {
	name string
	opt  Options
}{
	{"exact", Options{Store: StorePerfect}},
	{"exact+skip", Options{Store: StorePerfect, Skip: true}},
	{"sig4096", Options{Store: StoreSignature, Slots: 1 << 12}},
	{"sig4096+skip", Options{Store: StoreSignature, Slots: 1 << 12, Skip: true}},
	{"workers2", Options{Store: StorePerfect, Workers: 2}},
	{"workers2+skip", Options{Store: StorePerfect, Workers: 2, Skip: true}},
}

// outputDigestText renders one profiling result canonically: every
// dependence with its count in sorted order, the access count, and the
// skip statistics.
func outputDigestText(res *Result) string {
	lines := make([]string, 0, len(res.Deps))
	for d, n := range res.Deps {
		lines = append(lines, fmt.Sprintf("%+v %d", d, n))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	fmt.Fprintf(h, "accesses %d\nskip %+v\n", res.Accesses, res.Skip)
	return hex.EncodeToString(h.Sum(nil))
}

// TestProfilerOutputDigest profiles every registry workload under every
// digestOptions set and compares one hash of all the results with the
// recorded constant.
func TestProfilerOutputDigest(t *testing.T) {
	names := workloads.Names("")
	per := make([]string, len(names)*len(digestOptions))
	for i, name := range names {
		m := workloads.MustBuild(name, 1).M
		for j, o := range digestOptions {
			per[i*len(digestOptions)+j] = fmt.Sprintf("%s %s %s", name, o.name, outputDigestText(Profile(m, o.opt)))
		}
	}
	h := sha256.New()
	for _, l := range per {
		fmt.Fprintln(h, l)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != profilerOutputDigest {
		for _, l := range per {
			t.Log(l)
		}
		t.Errorf("profiler output digest = %s, want %s", got, profilerOutputDigest)
	}
}
