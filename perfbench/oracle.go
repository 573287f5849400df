package main

import (
	"fmt"
	"sort"
	"strings"

	"discopop"
	"discopop/internal/discovery"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// suggestion is the (kind, loc) pair the oracle compares.
type suggestion struct {
	Kind string `json:"kind"`
	Loc  string `json:"loc"`
}

// rankedSet canonicalizes a ranked list into a sorted, comma-joined key.
// Only positively scored suggestions count: the server's answer drops the
// zero-score (sequential) tail.
func rankedSet(ss []suggestion) string {
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.Kind + "@" + s.Loc
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// answer is what the server answers for a ranked list: the positively
// scored suggestions.
func answer(ranked []*discovery.Suggestion) []suggestion {
	var ss []suggestion
	for _, s := range ranked {
		if s.Score > 0 {
			ss = append(ss, suggestion{s.Kind.String(), s.Loc.String()})
		}
	}
	return ss
}

func reportSet(ranked []*discovery.Suggestion) string { return rankedSet(answer(ranked)) }

// references computes each program's ranked set through the library path
// on the reference tree walker, two programs at a time. It runs outside
// every timed phase.
func references(keys []progKey) (map[string]string, error) {
	jobs := make([]discopop.Job, len(keys))
	for i, k := range keys {
		p, err := workloads.Build(k.name, k.scale)
		if err != nil {
			return nil, err
		}
		jobs[i] = discopop.Job{Name: k.String(), Mod: p.M}
	}
	opt := discopop.Options{BatchWorkers: 2, Profiler: profiler.Options{TreeWalk: true}}
	out := make(map[string]string, len(keys))
	for _, r := range discopop.AnalyzeAll(jobs, opt) {
		if r.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.Name, r.Err)
		}
		out[r.Name] = reportSet(r.Report.Ranked)
	}
	return out, nil
}

// inlineShape is how server/inline.go lays out one kernel in the module's
// single source file: globals are declared first, for every kernel in
// order, then the main function's line, then each kernel's statements.
// Every declaration, statement and loop end takes one line.
type inlineShape struct {
	globals int // global arrays and scalars
	lines   int // lines of the kernel's statements
	loop    int // offset of the checked loop's header within those lines
}

var inlineShapes = map[string]inlineShape{
	"doall":      {globals: 1, lines: 3, loop: 0},  // for { a[i] = }
	"reduction":  {globals: 2, lines: 7, loop: 4},  // init for; sum = 0; for { sum += }
	"recurrence": {globals: 1, lines: 4, loop: 1},  // a[0] = ; for { a[i] = a[i-1] }
	"histogram":  {globals: 2, lines: 11, loop: 7}, // local bin; init for; zero for; for { bin = ; hist[bin] += }
	"stencil":    {globals: 2, lines: 6, loop: 3},  // init for; for { out[i] = }
}

// checkInline applies the known verdicts to an inline nest's answer: a
// recurrence loop is never DOALL, doall and stencil loops are DOALL, and a
// reduction loop is DOALL(reduction). Histogram loops get no check: their
// verdict depends on whether bins collide at run time.
func checkInline(nest []kernelSpec, got []suggestion) error {
	kinds := map[string]string{}
	for _, s := range got {
		kinds[s.Loc] = s.Kind
	}
	line := 1
	for _, k := range nest {
		line += inlineShapes[k.Pattern].globals
	}
	line++ // main
	for ki, k := range nest {
		p := k.Pattern
		sh := inlineShapes[p]
		loc := fmt.Sprintf("1:%d", line+sh.loop)
		line += sh.lines
		kind := kinds[loc]
		var want string
		switch p {
		case "recurrence":
			if strings.HasPrefix(kind, "DOALL") {
				return fmt.Errorf("kernel %d (recurrence) at %s classified %s", ki, loc, kind)
			}
			continue
		case "histogram":
			continue
		case "doall", "stencil":
			want = discovery.DOALL.String()
		case "reduction":
			want = discovery.DOALLReduction.String()
		}
		if kind != want {
			return fmt.Errorf("kernel %d (%s) at %s classified %q, want %q", ki, p, loc, kind, want)
		}
	}
	return nil
}

// check verifies one answer against the request's oracle.
func check(req request, refs map[string]string, got []suggestion) error {
	if req.kind == reqInline {
		return checkInline(req.nest, got)
	}
	want, ok := refs[req.ref]
	if !ok {
		return fmt.Errorf("no reference for %s", req.ref)
	}
	if g := rankedSet(got); g != want {
		return fmt.Errorf("%s: ranked set %q, reference %q", req.ref, g, want)
	}
	return nil
}
