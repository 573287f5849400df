package main

import (
	"fmt"
	"time"

	"discopop"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// largeProg is one analyze-large input.
type largeProg struct {
	key progKey
	mod *ir.Module
}

// setupLarge builds analyze-large's programs and warms the library path
// by analysing every program once at scale 1, n times, adding each
// set-up's time to times.
func setupLarge(seed int64, n int, times *setupTimes) ([]largeProg, error) {
	var progs []largeProg
	for rep := 0; rep < n; rep++ {
		t0 := times.start()
		progs = progs[:0]
		for _, k := range largeOrder(seed) {
			p, err := workloads.Build(k.name, k.scale)
			if err != nil {
				return nil, err
			}
			progs = append(progs, largeProg{k, p.M})
		}
		for _, p := range progs {
			warm, err := workloads.Build(p.key.name, 1)
			if err != nil {
				return nil, err
			}
			discopop.Analyze(warm.M, discopop.Options{})
		}
		times.stop(t0)
	}
	return progs, nil
}

// runLarge analyzes the programs one at a time, in whole cycles over the
// list, until a cycle ends after the deadline; measuring whole cycles keeps
// every run's work mix identical. A traced run takes the same path: its
// spans come from the layer replay.
func runLarge(progs []largeProg, refs map[string]string, deadline time.Time) *loadStats {
	st := newLoadStats()
	for time.Now().Before(deadline) {
		for _, p := range progs {
			st.attempted++
			t, c := time.Now(), cpuNow()
			rep := discopop.Analyze(p.mod, discopop.Options{})
			lat, cpu := ms(time.Since(t)), ms(cpuNow()-c)
			if got, want := reportSet(rep.Ranked), refs[p.key.String()]; got != want {
				st.fail(fmt.Errorf("%s: ranked set %q, reference %q", p.key, got, want))
				continue
			}
			st.completed(reqNamed, lat, cpu, rep.Instrs)
			for _, s := range rep.Times {
				st.stages[s.Stage] = append(st.stages[s.Stage], ms(s.D))
			}
		}
	}
	return st
}
