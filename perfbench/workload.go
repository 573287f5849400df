package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"discopop/internal/remote"
	"discopop/internal/workloads"
)

// Workload names, as BENCHMARK.json lists them.
const (
	serveCold    = "serve-cold"
	serveHot     = "serve-hot"
	analyzeLarge = "analyze-large"
)

// reqKind says how a request reaches the server and which oracle checks
// its answer.
type reqKind uint8

const (
	reqModule reqKind = iota // a renamed registry program as a base64 module
	reqInline                // an inline kernel nest
	reqNamed                 // a registry program by name (served from the profile cache)
)

// request is one generated POST /v1/analyze body plus what the oracle
// needs to check the answer.
type request struct {
	kind reqKind
	body []byte
	// ref keys the reference ranking of a registry program ("CG@2").
	ref string
	// name and nest are an inline nest's module name and kernels.
	name string
	nest []kernelSpec
}

// progKey names a registry program at a scale.
type progKey struct {
	name  string
	scale int
}

func (k progKey) String() string { return fmt.Sprintf("%s@%d", k.name, k.scale) }

// rngFor derives an independent generator for one (seed, stream, index)
// triple, so request i's content never depends on how many requests were
// generated before it or by which client.
func rngFor(seed int64, stream, i int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)*0xBF58476D1CE4E5B9 ^ uint64(i)*0x94D049BB133111EB
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// Streams of rngFor: each draw site owns one so that adding a draw in one
// place does not shift another.
const (
	streamRound = iota + 1
	streamInline
	streamHotSet
	streamLarge
)

// coldPool is serve-cold's program pool: every registry program at scales
// 1 and 2. A round submits each entry once, renamed, in a seeded order,
// interleaved with inlinePerRound inline nests; stratifying by round keeps
// the work mix of a run the same for every seed, so seeds vary the request
// stream without moving jobs_per_cpu_s.
func coldPool() []progKey {
	var out []progKey
	for _, scale := range []int{1, 2} {
		for _, name := range workloads.Names("") {
			out = append(out, progKey{name, scale})
		}
	}
	return out
}

// inlinePerRound is the number of inline kernel nests per serve-cold round:
// with the registry's 51 programs at two scales, 32 of every 134 requests.
// The share is an assumption, not a measurement; nothing in the repository
// records real traffic. The run prints the share
// of jobs and of instructions each source carries (workload.inline_*).
const inlinePerRound = 32

// inlinePatterns are the kernel patterns the server's inline API accepts.
var inlinePatterns = []string{"doall", "reduction", "recurrence", "histogram", "stencil"}

// coldStream generates serve-cold's request stream. Requests are built on
// demand (a run needs as many as the server can complete), but request i
// is a pure function of (seed, i). Set-up encodes every pool program once;
// a request copies the encoding, writes its own name into it and wraps it
// in a body, so the timed phase spends next to nothing on generation.
type coldStream struct {
	seed   int64
	pool   []progKey
	raw    [][]byte // pool entry i encoded under placeholderName
	nameAt []int    // offset of the name in raw[i]
	round  int
	perm   []int // entry order of the current round; <0 marks an inline slot

	mu sync.Mutex // guards round and perm
}

// coldName is the name of serve-cold request i ("cold") or warm-up job i
// ("warm"). Every name has the same length, so it can overwrite
// placeholderName in an encoded module without moving any other byte.
func coldName(prefix string, seed int64, i int) string {
	return fmt.Sprintf("%s-%016x-%08d", prefix, uint64(seed), i)
}

var placeholderName = strings.Repeat("_", len(coldName("cold", 0, 0)))

// newColdStream builds and encodes the pool's programs — the input
// generation part of serve-cold's set-up.
func newColdStream(seed int64) (*coldStream, error) {
	s := &coldStream{seed: seed, pool: coldPool(), round: -1}
	for _, k := range s.pool {
		p, err := workloads.Build(k.name, k.scale)
		if err != nil {
			return nil, err
		}
		p.M.Name = placeholderName
		raw, err := remote.Encode(p.M)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", k, err)
		}
		// The module's name is the first string the codec writes.
		at := bytes.Index(raw, []byte(placeholderName))
		if at < 0 {
			return nil, fmt.Errorf("encode %s: name not found in the encoding", k)
		}
		s.raw = append(s.raw, raw)
		s.nameAt = append(s.nameAt, at)
	}
	return s, nil
}

func (s *coldStream) roundLen() int { return len(s.pool) + inlinePerRound }

// order returns round r's slot order: pool indexes, with -1 for inline slots.
func (s *coldStream) order(r int) []int {
	slots := make([]int, 0, s.roundLen())
	for i := range s.pool {
		slots = append(slots, i)
	}
	for i := 0; i < inlinePerRound; i++ {
		slots = append(slots, -1)
	}
	rng := rngFor(s.seed, streamRound, r)
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// slot returns the pool index request i draws, or -1 for an inline nest.
func (s *coldStream) slot(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := i / s.roundLen(); r != s.round {
		s.perm, s.round = s.order(r), r
	}
	return s.perm[i%s.roundLen()]
}

// at returns request i; it is safe for concurrent use.
func (s *coldStream) at(i int) (request, error) {
	name := coldName("cold", s.seed, i)
	if slot := s.slot(i); slot >= 0 {
		return s.encode(slot, name), nil
	}
	return inlineRequest(name, rngFor(s.seed, streamInline, i))
}

// firstInline returns the inline nests of the stream's first round, in
// stream order: the ones the layer replay runs.
func (s *coldStream) firstInline() ([]request, error) {
	var out []request
	for i := 0; i < s.roundLen(); i++ {
		if s.slot(i) < 0 {
			req, err := s.at(i)
			if err != nil {
				return nil, err
			}
			out = append(out, req)
		}
	}
	return out, nil
}

// warmup returns warm-up job i of a set-up: pool entry slot under a name
// of its own, so the timed stream still misses every cache.
func (s *coldStream) warmup(slot, i int) request {
	return s.encode(slot, coldName("warm", s.seed, i))
}

// encode renders pool entry slot under a new name as a base64 module
// request. The content hash covers the name, so the program is distinct to
// both the profile cache and the compile cache.
func (s *coldStream) encode(slot int, name string) request {
	raw := bytes.Clone(s.raw[slot])
	copy(raw[s.nameAt[slot]:], name)
	const head, tail = `{"module":"`, `"}`
	body := make([]byte, 0, len(head)+base64.StdEncoding.EncodedLen(len(raw))+len(tail))
	body = append(body, head...)
	body = base64.StdEncoding.AppendEncode(body, raw)
	body = append(body, tail...)
	return request{kind: reqModule, body: body, ref: s.pool[slot].String()}
}

// kernelSpec is one kernel of an inline nest, as the inline API takes it.
type kernelSpec struct {
	Pattern string `json:"pattern"`
	N       int    `json:"n"`
}

// inlineRequest draws a nest of 1–4 kernels with n in [64, 4096]. The
// nest size comes from the benchmark's definition; n, log-uniform over a
// range well inside the API's [4, 65536], is an assumption, as nothing
// records what real inline traffic looks like.
func inlineRequest(name string, rng *rand.Rand) (request, error) {
	nest := make([]kernelSpec, 1+rng.Intn(4))
	for j := range nest {
		nest[j] = kernelSpec{Pattern: inlinePatterns[rng.Intn(len(inlinePatterns))], N: 64 << rng.Intn(7)}
	}
	body, err := json.Marshal(map[string]any{"inline": map[string]any{"name": name, "kernels": nest}})
	if err != nil {
		return request{}, err
	}
	return request{kind: reqInline, body: body, name: name, nest: nest}, nil
}

// hotSetSize is the number of registry programs serve-hot cycles through.
const hotSetSize = 8

// hotCandidates are the registry programs serve-hot draws from, in
// ascending order of statements executed at scale 1 (11k to 47k): the
// band leaves out the near-empty programs and the few whose profile is
// several times larger, so that no single draw dominates a hot set.
var hotCandidates = []string{
	"bodytrack-mt", "bzip2", "ray-rot", "blackscholes", "streamcluster-mt", "FT",
	"c-ray-mt", "streamcluster", "md5", "kmeans-mt", "rot-cc-mt", "strassen",
	"rotate", "rot-cc", "rotate-mt", "BT", "LU", "SP", "bodytrack", "histogram",
	"rgbyuv-mt", "md5-mt", "prefix-sum", "matmul", "MG", "rgbyuv",
	"montecarlo-pi", "EP", "IS", "CG", "facedetection",
}

// hotSet draws serve-hot's programs (scale 1): the candidates are cut into
// hotSetSize consecutive strata and one program is drawn from each, so
// every seed's hot set spans the band and the work per round stays
// comparable across seeds.
func hotSet(seed int64) []progKey {
	rng := rngFor(seed, streamHotSet, 0)
	out := make([]progKey, hotSetSize)
	for h := range out {
		lo, hi := h*len(hotCandidates)/hotSetSize, (h+1)*len(hotCandidates)/hotSetSize
		out[h] = progKey{hotCandidates[lo+rng.Intn(hi-lo)], 1}
	}
	return out
}

// hotStream is serve-hot's request stream: rounds over the hot set in a
// seeded order, each request naming a program the set-up already profiled.
// The bodies are built once, in set-up.
type hotStream struct {
	seed  int64
	reqs  []request // one per hot-set program
	round int
	perm  []int // request order of the current round

	mu sync.Mutex // guards round and perm
}

func newHotStream(seed int64) (*hotStream, error) {
	s := &hotStream{seed: seed, round: -1}
	for _, k := range hotSet(seed) {
		body, err := json.Marshal(map[string]any{"workload": k.name, "scale": k.scale})
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, request{kind: reqNamed, body: body, ref: k.String()})
	}
	return s, nil
}

// at returns request i; it is safe for concurrent use.
func (s *hotStream) at(i int) (request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := i / len(s.reqs); r != s.round {
		s.perm, s.round = rngFor(s.seed, streamRound, r).Perm(len(s.reqs)), r
	}
	return s.reqs[s.perm[i%len(s.reqs)]], nil
}

// largeScale is analyze-large's program scale: about 8x the working set of
// serve-cold's scale-1 and scale-2 programs.
const largeScale = 8

// largeSet lists analyze-large's programs: the registry programs whose
// scale-8 build executes at least 100k statements (smaller ones stop
// growing with scale), minus nbody, whose scale-8 run alone would take a
// tenth of a cycle.
var largeSet = []string{
	"floorplan", "facedetection", "md5-mt", "kmeans-mt", "c-ray-mt", "rgbyuv-mt",
	"rotate-mt", "rot-cc-mt", "EP", "CG", "FT", "IS", "MG", "LU", "SP", "BT",
	"c-ray", "kmeans", "md5", "rgbyuv", "rotate", "rot-cc", "streamcluster",
	"bodytrack", "histogram", "mandelbrot", "matmul", "montecarlo-pi", "prefix-sum",
}

// largeOrder is the seeded order analyze-large runs its programs in, every
// cycle. The seed permutes the order and never the set, so all seeds do the
// same work per cycle.
func largeOrder(seed int64) []progKey {
	out := make([]progKey, len(largeSet))
	for i, j := range rngFor(seed, streamLarge, 0).Perm(len(largeSet)) {
		out[i] = progKey{largeSet[j], largeScale}
	}
	return out
}
