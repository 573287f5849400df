package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0: a ratio without a base reads 0, and
// its base is reported beside it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// completion is one successful operation: the process CPU time when it
// ended and how many target statements it analysed.
type completion struct {
	cpu    time.Duration
	instrs float64
}

// slice is a run of consecutive completions of a timed phase, from the
// previous slice's last completion (or the phase start) to its own last,
// spanned in process CPU time. Throughput is the median over slices.
type slice struct {
	start, end   time.Duration
	jobs, instrs float64
}

// phaseSlices is how many slices a serve-* timed phase is cut into.
const phaseSlices = 20

// slicesOf cuts the completions, in time order, into slices of per
// completions each; a tail shorter than per is dropped.
func slicesOf(cs []completion, start time.Duration, per int) []slice {
	sort.Slice(cs, func(i, j int) bool { return cs[i].cpu < cs[j].cpu })
	per = max(per, 1)
	var out []slice
	for i := 0; i+per <= len(cs); i += per {
		sl := slice{start: start, end: cs[i+per-1].cpu, jobs: float64(per)}
		for _, c := range cs[i : i+per] {
			sl.instrs += c.instrs
		}
		out = append(out, sl)
		start = sl.end
	}
	return out
}

// medianRate returns the median over slices of f(slice) per CPU-second.
func medianRate(sls []slice, f func(slice) float64) float64 {
	rates := make([]float64, 0, len(sls))
	for _, sl := range sls {
		if d := (sl.end - sl.start).Seconds(); d > 0 {
			rates = append(rates, f(sl)/d)
		}
	}
	return median(rates)
}

func jobsOf(sl slice) float64   { return sl.jobs }
func instrsOf(sl slice) float64 { return sl.instrs }

// setupReps is how many times a run sets up; setup_s is the median. Half
// the set-ups run before the timed phase and half after it: the CPU time a
// set-up of a second or so takes moves with how busy other tenants keep
// the host at that moment, and two windows half a minute apart sample
// that twice.
const setupReps = 12

// setupTimes collects the process CPU and wall time of each set-up.
type setupTimes struct{ cpu, wall []float64 }

type setupStart struct {
	cpu  time.Duration
	wall time.Time
}

func (st *setupTimes) start() setupStart {
	runtime.GC()
	return setupStart{cpuNow(), time.Now()}
}

func (st *setupTimes) stop(s setupStart) {
	st.cpu = append(st.cpu, (cpuNow() - s.cpu).Seconds())
	st.wall = append(st.wall, time.Since(s.wall).Seconds())
}

// cpuMedian prints both medians and returns the CPU one, which is setup_s.
func (st *setupTimes) cpuMedian() float64 {
	c, w := median(st.cpu), median(st.wall)
	fmt.Printf("set-up: median of %d: %.4fs CPU, %.4fs wall\n", len(st.cpu), c, w)
	return c
}

// heapSampler samples the runtime's live-heap estimate (updated at the end
// of every GC cycle) every 5 ms while a phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan []heapSample
}

// heapSample is one live-heap reading and the process CPU time it was
// taken at, which places it in a slice.
type heapSample struct {
	cpu   time.Duration
	bytes float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() float64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []heapSample, 1)}
	go func() {
		var out []heapSample
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				out = append(out, heapSample{cpuNow(), liveHeap()})
			case <-h.stop:
				h.done <- out
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the samples in time order.
func (h *heapSampler) Stop() []heapSample {
	close(h.stop)
	return <-h.done
}

// slicePeakMB returns, in MiB, the median over slices of the highest
// live-heap sample taken within each slice. A run's single highest sample
// depends on whether a GC cycle happened to end inside one of its few
// largest jobs; every slice holds the same mix, so the median of their
// peaks is the steadier figure of the same memory high-water mark.
func slicePeakMB(sls []slice, hs []heapSample) float64 {
	var peaks []float64
	for _, sl := range sls {
		peak := -1.0
		for _, h := range hs {
			if h.cpu > sl.start && h.cpu <= sl.end {
				peak = math.Max(peak, h.bytes)
			}
		}
		if peak >= 0 {
			peaks = append(peaks, peak/(1<<20))
		}
	}
	return median(peaks)
}

// runtimeCounters are the process-wide allocation and GC-pause totals the
// runtime layer's metrics are diffed from. The benchmark's clients share
// the process, so they are included.
type runtimeCounters struct {
	allocBytes float64
	pauseNs    float64
	cpu        time.Duration // user plus system time of the process
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{float64(m.TotalAlloc), float64(m.PauseTotalNs), cpuNow()}
}

// cpuNow is the user plus system time of the process: every thread's time
// on a CPU. The end-to-end metrics are taken in it rather than in wall
// time because on a shared virtual machine the hypervisor hands the vCPUs
// to other guests for stretches that come and go (steal time); a
// paravirtualised Linux guest leaves stolen time out of its threads' CPU
// time, so it does not move these figures, while it moves wall-clock ones
// by tens of percent between runs.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// Getrusage of the calling process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
