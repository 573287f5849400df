package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"discopop/internal/bytecode"
	"discopop/internal/remote"
)

func streamOf(t *testing.T, work string, seed int64) stream {
	t.Helper()
	switch work {
	case serveCold:
		s, err := newColdStream(seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	case serveHot:
		s, err := newHotStream(seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Fatalf("no stream for %s", work)
	return nil
}

func bodies(t *testing.T, st stream, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		req, err := st.at(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = req.body
	}
	return out
}

// The same seed gives a byte-identical request stream, and another seed a
// different one.
func TestStreamDeterministic(t *testing.T) {
	for _, work := range []string{serveCold, serveHot} {
		n := 300
		a := bodies(t, streamOf(t, work, 7), n)
		b := bodies(t, streamOf(t, work, 7), n)
		c := bodies(t, streamOf(t, work, 8), n)
		same := 0
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", work, i)
			}
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == n {
			t.Errorf("%s: seeds 7 and 8 give the same stream", work)
		}
	}
	a, b := largeOrder(7), largeOrder(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("analyze-large: order differs at %d for one seed", i)
		}
	}
}

// Every serve-cold request is a distinct program to both the profile cache
// (keyed by the payload hash) and the compile cache (keyed by the module's
// content hash).
func TestColdProgramsDistinct(t *testing.T) {
	s := streamOf(t, serveCold, 3).(*coldStream)
	payloads := map[[32]byte]int{}
	modules := map[[32]byte]int{}
	for i := 0; i < 2*s.roundLen(); i++ {
		req, err := s.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if req.kind == reqInline {
			// Inline nests carry no cache key; their names make the
			// modules distinct to the compile cache.
			continue
		}
		var body struct{ Module string }
		if err := json.Unmarshal(req.body, &body); err != nil {
			t.Fatal(err)
		}
		raw, err := base64.StdEncoding.DecodeString(body.Module)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := payloads[sha256.Sum256(raw)]; dup {
			t.Fatalf("requests %d and %d carry the same payload", j, i)
		}
		payloads[sha256.Sum256(raw)] = i
		m, err := remote.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		h := bytecode.ModuleHash(m)
		if j, dup := modules[h]; dup {
			t.Fatalf("requests %d and %d decode to the same module", j, i)
		}
		modules[h] = i
	}
}

// serveBriefly sets a serve-* workload up once and runs its closed loop for
// a second (every client completes at least one job), fails the test on any
// failed operation, and returns the /metrics diff.
func serveBriefly(t *testing.T, work string, seed int64) counters {
	t.Helper()
	var keys []progKey
	if work == serveCold {
		keys = coldPool()
	} else {
		keys = hotSet(seed)
	}
	refs, err := references(keys)
	if err != nil {
		t.Fatal(err)
	}
	su, err := setupServeOnce(work, seed, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer su.env.close()
	before, err := su.env.scrape()
	if err != nil {
		t.Fatal(err)
	}
	var next atomic.Int64
	load, _, err := runLoad(su.env, su.stream, &next, refs, time.Now().Add(time.Second), false)
	if err != nil {
		t.Fatal(err)
	}
	after, err := su.env.scrape()
	if err != nil {
		t.Fatal(err)
	}
	if load.failed != 0 {
		t.Fatalf("%d of %d operations failed; first: %v", load.failed, load.attempted, load.firstErr)
	}
	return after.diff(before)
}

// serve-hot is served from the profile cache after warm-up.
func TestServeHotHits(t *testing.T) {
	d := serveBriefly(t, serveHot, 5)
	hits, misses := d["dp_profile_cache_hits_total"], d["dp_profile_cache_misses_total"]
	if r := ratio(hits, hits+misses); r < 0.99 {
		t.Errorf("profile cache hit ratio %.3f after warm-up (%g hits, %g misses), want >= 0.99", r, hits, misses)
	}
}

// serve-cold misses both caches on every job, and its answers, inline
// kernels included, pass the oracle.
func TestServeColdMisses(t *testing.T) {
	d := serveBriefly(t, serveCold, 5)
	if m := d["dp_profile_cache_misses_total"]; m == 0 {
		t.Error("no profile cache lookups")
	}
	if h := d["dp_profile_cache_hits_total"]; h != 0 {
		t.Errorf("%g profile cache hits, want 0", h)
	}
	if h := d["dp_compile_cache_hits_total"]; h != 0 {
		t.Errorf("%g compile cache hits, want 0", h)
	}
}

// The inline oracle knows where each kernel's checked loop is and what the
// analyzer must say about it.
func TestCheckInline(t *testing.T) {
	// Two kernels: globals take lines 1-3, main line 4, the doall kernel
	// lines 5-7 and the reduction kernel lines 8-14 (its sum loop at 12).
	nest := []kernelSpec{{"doall", 64}, {"reduction", 64}}
	good := []suggestion{{"DOALL", "1:5"}, {"DOALL(reduction)", "1:12"}, {"DOALL", "1:8"}}
	if err := checkInline(nest, good); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	if err := checkInline(nest, good[:1]); err == nil {
		t.Error("missing reduction verdict accepted")
	}
	if err := checkInline([]kernelSpec{{"recurrence", 64}}, []suggestion{{"DOALL", "1:4"}}); err == nil {
		t.Error("DOALL recurrence accepted")
	}
}

// The replay's copy of the server's inline builder yields the module the
// server builds: the server answers an inline nest and the copy's module,
// submitted as a module, with the same instruction count and suggestions.
func TestInlineModuleMatchesServer(t *testing.T) {
	env, err := bootServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	s := streamOf(t, serveCold, 5).(*coldStream)
	nests, err := s.firstInline()
	if err != nil {
		t.Fatal(err)
	}
	if len(nests) != inlinePerRound {
		t.Fatalf("first round has %d inline nests, want %d", len(nests), inlinePerRound)
	}
	// Every pattern at both ends of the n range, then a few seeded nests.
	for _, p := range inlinePatterns {
		for _, n := range []int{64, 4096} {
			nests = append(nests, request{kind: reqInline, name: "probe", nest: []kernelSpec{{p, n}}})
		}
	}
	for _, req := range append(nests[inlinePerRound:], nests[:6]...) {
		viaAPI, err := json.Marshal(map[string]any{"inline": map[string]any{"name": req.name, "kernels": req.nest}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := inlineModule(req.name, req.nest)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := remote.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		viaModule, err := json.Marshal(map[string]string{"module": base64.StdEncoding.EncodeToString(raw)})
		if err != nil {
			t.Fatal(err)
		}
		a, b := env.do(viaAPI, nil), env.do(viaModule, nil)
		if a.err != nil || b.err != nil {
			t.Fatalf("%v: %v / %v", req.nest, a.err, b.err)
		}
		ra, rb := a.view.Result, b.view.Result
		if ra.Instrs != rb.Instrs || rankedSet(ra.Suggestions) != rankedSet(rb.Suggestions) {
			t.Errorf("%v: server %d instrs %q, copy %d instrs %q", req.nest,
				ra.Instrs, rankedSet(ra.Suggestions), rb.Instrs, rankedSet(rb.Suggestions))
		}
		if err := checkInline(req.nest, rb.Suggestions); err != nil {
			t.Errorf("%v: %v", req.nest, err)
		}
	}
}

// The metric names the program reports are the ones BENCHMARK.json
// declares, it runs every workload BENCHMARK.json lists, and the
// prediction table names only known metrics and workloads.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	// serve-hot runs by hand but is not gated (BENCHMARK.json says why).
	workloads := map[string]bool{serveCold: true, serveHot: true, analyzeLarge: true}
	for _, w := range spec.Workloads {
		if !workloads[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not run", w.Name)
		}
	}

	raw, err = os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Predictions []struct {
			Layer, Moves string
			Workloads    []string
		}
		Expected []struct{ Layer, Workload string }
	}
	if err := json.Unmarshal(raw, &pred); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{"none": true}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names[m.name] = true
	}
	for _, p := range pred.Predictions {
		if !names[p.Layer] || !names[p.Moves] {
			t.Errorf("prediction %s -> %s names an unknown metric", p.Layer, p.Moves)
		}
		for _, w := range p.Workloads {
			if !workloads[w] {
				t.Errorf("prediction %s -> %s names unknown workload %s", p.Layer, p.Moves, w)
			}
		}
	}
	for _, e := range pred.Expected {
		if !names[e.Layer] || !workloads[e.Workload] {
			t.Errorf("expectation %s on %s names an unknown metric or workload", e.Layer, e.Workload)
		}
	}
}
