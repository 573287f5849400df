package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discopop/internal/metrics"
	"discopop/internal/obs"
	"discopop/internal/server"
)

// clients is the load generator's closed-loop client count. One, although
// the server has two workers: two clients keep both cores of a 2-core host
// busy, and on a shared host CPU taken by other tenants then moved
// throughput and latency about twice as much from run to run.
const clients = 1

// serverWorkers is the engine worker count of the server under test.
const serverWorkers = 2

// serverRetained caps the server's profile cache entries and finished-job
// records. Every serve-cold job is distinct, so both grow by one per job
// until they hit the cap, and the heap and GC work with them. At the
// server's default caps (1024) a run reaches them only after about 1024
// jobs, later the slower the host is at the time, and the peak live heap
// (runtime.peak_live_heap_mb) moved by a fifth from run to run with how
// far it got. At 128 every run fills both within its first few seconds
// and measures a server in steady state. The serve-hot set (8 programs)
// fits.
const serverRetained = 128

// serveEnv is one booted server behind a loopback HTTP listener.
type serveEnv struct {
	srv *server.Server
	hs  *httptest.Server
	cl  *http.Client
}

// bootServer starts a server whose journal lives in dir, replaying any
// journal already there.
func bootServer(dir string) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers:      serverWorkers,
		CacheEntries: serverRetained,
		MaxRecords:   serverRetained,
		JournalPath:  filepath.Join(dir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	return &serveEnv{srv: srv, hs: httptest.NewServer(srv), cl: &http.Client{Transport: tr}}, nil
}

// close drains the server (every accepted job finishes and the journal is
// closed), then shuts the listener and the client's connections.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	e.cl.CloseIdleConnections()
	e.hs.Close()
	return err
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Instrs      int64        `json:"instrs"`
		QueueMS     float64      `json:"queue_ms"`
		Suggestions []suggestion `json:"suggestions"`
		Spans       []obs.Span   `json:"spans"`
	} `json:"result"`
}

// outcome is one closed-loop operation: submit, then long-poll to the end.
type outcome struct {
	err      error   // non-202 answer, transport error, or failed job
	submitMS float64 // POST round trip
	latMS    float64 // POST sent to the long poll returning done
	cpuMS    float64 // process CPU time over latMS: the job's cost, with one in flight
	view     jobView
}

func (e *serveEnv) getJSON(url string, v any) error {
	resp, err := e.cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do submits one request and long-polls its job to completion. With rec
// non-nil it records client spans and grafts the job's server-side spans
// under the wait; spans an error leaves open are closed by rec.Trace.
func (e *serveEnv) do(body []byte, rec *obs.Recorder) outcome {
	var o outcome
	var root, sp int
	if rec != nil {
		root = rec.Start("job")
		sp = rec.Start("submit")
	}
	t0, c0 := time.Now(), cpuNow()
	resp, err := e.cl.Post(e.hs.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var acc struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	o.submitMS = ms(time.Since(t0))
	switch {
	case resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Errorf("POST /v1/analyze: %s: %s", resp.Status, acc.Error)
		return o
	case err != nil:
		o.err = fmt.Errorf("POST /v1/analyze: %w", err)
		return o
	}
	if rec != nil {
		rec.End(sp)
		sp = rec.Start("wait")
	}
	for o.view.State != "done" && o.view.State != "failed" {
		if err := e.getJSON(e.hs.URL+"/v1/jobs/"+acc.ID+"?wait=30s", &o.view); err != nil {
			o.err = err
			return o
		}
	}
	o.latMS, o.cpuMS = ms(time.Since(t0)), ms(cpuNow()-c0)
	switch {
	case o.view.State == "failed":
		o.err = fmt.Errorf("job %s failed: %s", acc.ID, o.view.Error)
	case o.view.Result == nil:
		o.err = fmt.Errorf("job %s done without a result", acc.ID)
	case rec != nil:
		rec.Graft("dp-serve", o.view.Result.Spans)
		rec.End(sp)
		rec.End(root)
	}
	return o
}

// stream yields a workload's requests by index.
type stream interface {
	at(i int) (request, error)
}

// loadStats accumulates one client's (then the merged) operations.
type loadStats struct {
	attempted, failed  int
	firstErr           error
	lat, submit, queue []float64 // wall ms, successful jobs
	cpuLat             []float64 // process CPU ms per successful job
	done               []completion
	bySource           map[reqKind]sourceShare
	stages             map[string][]float64
	traces             []*obs.Trace
	genS               float64 // time spent generating requests
}

// sourceShare is the successful jobs and instructions of one request source.
type sourceShare struct{ jobs, instrs float64 }

func newLoadStats() *loadStats {
	return &loadStats{bySource: map[reqKind]sourceShare{}, stages: map[string][]float64{}}
}

// instrs is the instructions of all successful jobs.
func (l *loadStats) instrs() float64 {
	var n float64
	for _, s := range l.bySource {
		n += s.instrs
	}
	return n
}

// completed records a successful job of source kind, its wall and CPU
// latency in ms.
func (l *loadStats) completed(kind reqKind, latMS, cpuMS float64, instrs int64) {
	l.lat = append(l.lat, latMS)
	l.cpuLat = append(l.cpuLat, cpuMS)
	l.done = append(l.done, completion{cpuNow(), float64(instrs)})
	s := l.bySource[kind]
	s.jobs++
	s.instrs += float64(instrs)
	l.bySource[kind] = s
}

func (l *loadStats) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// add folds one operation in: a failure (transport, non-202, failed job)
// or an answer the oracle rejects counts as failed.
func (l *loadStats) add(req request, o outcome, refs map[string]string) {
	l.attempted++
	if o.err != nil {
		l.fail(o.err)
		return
	}
	res := o.view.Result
	if err := check(req, refs, res.Suggestions); err != nil {
		l.fail(err)
		return
	}
	l.completed(req.kind, o.latMS, o.cpuMS, res.Instrs)
	l.submit = append(l.submit, o.submitMS)
	l.queue = append(l.queue, res.QueueMS)
	for name, d := range stageSpans(res.Spans) {
		l.stages[name] = append(l.stages[name], d)
	}
}

func (l *loadStats) merge(o *loadStats) {
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
	l.lat = append(l.lat, o.lat...)
	l.cpuLat = append(l.cpuLat, o.cpuLat...)
	l.done = append(l.done, o.done...)
	for k, s := range o.bySource {
		t := l.bySource[k]
		t.jobs += s.jobs
		t.instrs += s.instrs
		l.bySource[k] = t
	}
	l.genS += o.genS
	l.submit = append(l.submit, o.submit...)
	l.queue = append(l.queue, o.queue...)
	for k, v := range o.stages {
		l.stages[k] = append(l.stages[k], v...)
	}
	l.traces = append(l.traces, o.traces...)
}

// stageSpans returns a job's pipeline stage times in ms: the children of
// the server's root job span, without the queue interval.
func stageSpans(spans []obs.Span) map[string]float64 {
	root := -1
	for i, sp := range spans {
		if sp.Parent < 0 && sp.Node == "" {
			root = i
			break
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		if root >= 0 && sp.Parent == root && sp.Node == "" && sp.Name != "queue" {
			out[sp.Name] += float64(sp.Dur) / 1e6
		}
	}
	return out
}

// runLoad runs the closed loop: each client submits request next, waits
// for its job, and takes the next index, until deadline. With record set
// it keeps each operation's client spans, with the job's server-side spans
// grafted in. It returns the merged statistics and the time until the last
// client finished.
func runLoad(e *serveEnv, st stream, next *atomic.Int64, refs map[string]string, deadline time.Time, record bool) (*loadStats, time.Duration, error) {
	t0 := time.Now()
	per := make([]*loadStats, clients)
	genErr := make([]error, clients)
	var wg sync.WaitGroup
	for c := range per {
		l := newLoadStats()
		per[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				g0 := time.Now()
				req, err := st.at(i)
				l.genS += time.Since(g0).Seconds()
				if err != nil {
					genErr[c] = err
					return
				}
				var rec *obs.Recorder
				if record {
					rec = obs.NewRecorder(fmt.Sprintf("req%d", i))
				}
				l.add(req, e.do(req.body, rec), refs)
				if rec != nil {
					l.traces = append(l.traces, rec.Trace())
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	total := newLoadStats()
	for c, l := range per {
		if genErr[c] != nil {
			return nil, 0, genErr[c]
		}
		total.merge(l)
	}
	return total, elapsed, nil
}

// counters is one /metrics scrape: every sample summed by family name,
// plus labeled samples under "name{value}".
type counters map[string]float64

func (e *serveEnv) scrape() (counters, error) {
	resp, err := e.cl.Get(e.hs.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := counters{}
	for _, p := range sc.Points {
		out[p.Name] += p.Value
		for _, v := range p.Labels {
			out[p.Name+"{"+v+"}"] += p.Value
		}
	}
	return out, nil
}

// diff returns after - before for every family in after.
func (after counters) diff(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// labeled lists the labeled samples of one family as "value=count".
func (c counters) labeled(family string) string {
	var parts []string
	for k, v := range c {
		if strings.HasPrefix(k, family+"{") && v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.4g", strings.TrimSuffix(k[len(family)+1:], "}"), v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// serveSetup is what one set-up of a serve-* workload leaves behind.
type serveSetup struct {
	env    *serveEnv
	stream stream
}

// serveSetups performs a serve-* workload's set-ups. The first boot, not
// timed, starts on an empty journal and leaves its warm-up jobs in it as
// history; each timed set-up boots on a copy of that history. Set-up time
// is input generation, boot (journal open and replay) and warm-up.
type serveSetups struct {
	work, base string
	seed       int64
	rep        int
	times      setupTimes
}

func newServeSetups(work string, seed int64, base string) (*serveSetups, error) {
	first, err := setupServeOnce(work, seed, filepath.Join(base, "history"), 0)
	if err != nil {
		return nil, err
	}
	if err := first.env.close(); err != nil {
		return nil, err
	}
	return &serveSetups{work: work, base: base, seed: seed}, nil
}

// run performs n timed set-ups, closing each server before the next boots,
// and returns the last one's, still open, if keep is set.
func (ss *serveSetups) run(n int, keep bool) (*serveSetup, error) {
	var last *serveSetup
	for i := 0; i < n; i++ {
		if last != nil {
			if err := last.env.close(); err != nil {
				return nil, err
			}
		}
		ss.rep++
		dir := filepath.Join(ss.base, fmt.Sprintf("boot%d", ss.rep))
		if err := copyDir(filepath.Join(ss.base, "history"), dir); err != nil {
			return nil, err
		}
		t0 := ss.times.start()
		s, err := setupServeOnce(ss.work, ss.seed, dir, ss.rep)
		if err != nil {
			return nil, err // setupServeOnce closed its server
		}
		ss.times.stop(t0)
		last = s
	}
	if !keep && last != nil {
		return nil, last.env.close()
	}
	return last, nil
}

// coldWarmups is the number of serve-cold warm-up jobs per boot.
const coldWarmups = 8

func setupServeOnce(work string, seed int64, dir string, rep int) (*serveSetup, error) {
	s := &serveSetup{}
	var warm []request
	switch work {
	case serveCold:
		cs, err := newColdStream(seed)
		if err != nil {
			return nil, err
		}
		s.stream = cs
		for j := 0; j < coldWarmups; j++ {
			warm = append(warm, cs.warmup(j*len(cs.pool)/coldWarmups, rep*coldWarmups+j))
		}
	case serveHot:
		hs, err := newHotStream(seed)
		if err != nil {
			return nil, err
		}
		s.stream = hs
		warm = hs.reqs
	}
	env, err := bootServer(dir)
	if err != nil {
		return nil, err
	}
	s.env = env
	for _, req := range warm {
		if o := env.do(req.body, nil); o.err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return s, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			if err := copyDir(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
				return err
			}
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
