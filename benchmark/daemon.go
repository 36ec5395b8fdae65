package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/task"
)

// jobsPerSecond sizes a daemon run: -seconds 25 submits 225 jobs, which
// leaves 11 beyond p95. The job count is fixed by -seconds rather than
// by the clock so that the heap a run leaves behind, which grows with
// every finished job, is compared at the same job count on both sides
// of a change.
const jobsPerSecond = 9

// weighted is one spec of the daemon traffic mix and its draw weight.
type weighted struct {
	spec   task.Spec
	weight int
}

// daemonMix is the daemon workloads' traffic: six job specs covering
// every kind, drawn by weight.
func daemonMix(cfg config) []weighted {
	sc := func(s float64) float64 {
		if cfg.small {
			return 0.02
		}
		return s
	}
	cycles := 256
	if cfg.small {
		cycles = 32
	}
	return []weighted{
		{task.Spec{Kind: task.KindScreen, Circuit: "s38584", Scale: sc(0.1), Seed: 1}, 2},
		{task.Spec{Kind: task.KindFaultSim, Circuit: "s15850", Scale: sc(0.1), Seed: 1, Cycles: cycles}, 3},
		{task.Spec{Kind: task.KindFaultSim, Circuit: "s38584", Scale: sc(0.1), Seed: 1, Cycles: cycles}, 1},
		{task.Spec{Kind: task.KindATPG, Circuit: "s9234", Scale: sc(0.05), Seed: 1}, 2},
		{task.Spec{Kind: task.KindDiagnose, Circuit: "s3384", Scale: sc(0.1), Seed: 1}, 2},
		{task.Spec{Kind: task.KindFlow, Circuit: "s9234", Scale: sc(0.1), Seed: 1}, 2},
	}
}

// derivedSeed returns the i-th generator seed of a stream (splitmix64
// over the run seed). It is never 0 or 1, so a derived spec never
// shares a circuit with the mix's seed-1 specs.
func derivedSeed(seed int64, stream, i uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) | 2
}

// daemonJobs returns the timed jobs and each job's mix index: each mix
// entry in proportion to its weight, in an order shuffled with the run
// seed. A fixed composition keeps the work, and the heap the finished
// jobs leave behind, the same at every seed; the seed decides the order
// and, in daemon-cold, every job's circuit: each job gets a generator
// seed of its own, so no two jobs share a circuit.
func daemonJobs(cfg config, mix []weighted, cold bool) ([]task.Spec, []int) {
	var deck []int // one mix index per unit of weight
	for k, w := range mix {
		for range w.weight {
			deck = append(deck, k)
		}
	}
	n := jobsPerSecond * cfg.seconds
	if cfg.small {
		n = len(deck) // every spec at least once
	}
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = deck[i%len(deck)]
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	jobs := make([]task.Spec, n)
	for i, k := range kinds {
		jobs[i] = mix[k].spec
		if cold {
			jobs[i].Seed = derivedSeed(cfg.seed, 0, uint64(i))
		}
	}
	return jobs, kinds
}

// warmSpecs are the jobs set-up runs once each before timing, so lazy
// start-up work is done: daemon-hot warms its own six specs, which fills
// the engine cache; daemon-cold warms seeds no timed job uses, so its
// timed jobs still miss.
func warmSpecs(cfg config, mix []weighted, cold bool) []task.Spec {
	specs := make([]task.Spec, len(mix))
	for k, w := range mix {
		specs[k] = w.spec
		if cold {
			specs[k].Seed = derivedSeed(cfg.seed, 1, uint64(k))
		}
	}
	return specs
}

// daemon is an in-process fsctd behind a loopback HTTP server, and the
// client the load generator shares.
type daemon struct {
	srv *serve.Server
	hs  *httptest.Server
	tp  *http.Transport
	cl  *http.Client
}

// startDaemon starts the server with the daemon's default runners and a
// 64 MiB engine cache budget and waits for its first healthy /healthz.
func startDaemon(cfg config, sink serve.LedgerSink) (*daemon, error) {
	srv := serve.New(serve.Config{CacheBudget: 64 << 20, Ledger: sink})
	d := &daemon{srv: srv, hs: httptest.NewServer(srv.Handler())}
	d.tp = &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}
	d.cl = &http.Client{Transport: d.tp, Timeout: time.Minute}
	resp, err := d.cl.Get(d.hs.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.tp.CloseIdleConnections()
	d.hs.Close()
	d.srv.Close()
}

// setUpDaemon starts a daemon and runs the warm-up jobs; it returns the
// daemon and the set-up's wall time.
func setUpDaemon(cfg config, warm []task.Spec, sink serve.LedgerSink) (*daemon, float64, error) {
	runtime.GC()
	t0 := time.Now()
	d, err := startDaemon(cfg, sink)
	if err != nil {
		return nil, 0, err
	}
	for _, sp := range warm {
		if s := d.runJob(sp); s.err != nil {
			d.close()
			return nil, 0, fmt.Errorf("warm-up %s: %w", specKey(sp), s.err)
		}
	}
	return d, secs(time.Since(t0)), nil
}

// jobSample is one job as the client saw it.
type jobSample struct {
	spec task.Spec
	// start: POST sent; posted: its response read; done: the terminal
	// SSE frame read; end: the result body read.
	start, posted, done, end time.Time
	view                     serve.View // the job's terminal view
	output                   string
	err                      error
}

// runJob drives one job the way a waiting caller does: submit, follow
// the progress stream (unit_end frames only) to the terminal frame, then
// fetch the result.
func (d *daemon) runJob(sp task.Spec) (s jobSample) {
	s.spec = sp
	body, err := json.Marshal(sp)
	if err != nil {
		s.err = err
		return s
	}
	s.start = time.Now()
	defer func() {
		if s.end.IsZero() {
			s.end = time.Now()
		}
	}()
	var v serve.View
	if err := d.call(http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&v)
	}); err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.posted = time.Now()
	if err := d.call(http.MethodGet, "/api/v1/jobs/"+v.ID+"/events?kinds=unit_end", nil, http.StatusOK, func(r io.Reader) error {
		view, err := readDone(r)
		s.view = view
		return err
	}); err != nil {
		s.err = fmt.Errorf("events: %w", err)
		return s
	}
	s.done = time.Now()
	if err := d.call(http.MethodGet, "/api/v1/jobs/"+v.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		out, err := io.ReadAll(r)
		s.output = string(out)
		return err
	}); err != nil {
		s.err = fmt.Errorf("result: %w", err)
		return s
	}
	s.end = time.Now()
	if s.view.Status != serve.StatusDone {
		s.err = fmt.Errorf("job %s ended %s: %s", v.ID, s.view.Status, s.view.Error)
	}
	return s
}

// call makes one request, hands the body to read on the wanted status,
// and drains the body so the connection is reused.
func (d *daemon) call(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, d.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	err = read(resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

// readDone reads an SSE stream to its terminal "done" frame and returns
// the job view it carries.
func readDone(r io.Reader) (serve.View, error) {
	var v serve.View
	sc := bufio.NewScanner(r)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			return v, json.Unmarshal([]byte(data), &v)
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("stream ended without a done frame")
}

// loop runs the jobs in a closed loop: nproc clients, each sending its
// next job as soon as its previous one is fetched, as callers that wait
// for their result do.
func (d *daemon) loop(cfg config, jobs []task.Spec) ([]jobSample, time.Duration) {
	samples := make([]jobSample, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				samples[i] = d.runJob(jobs[i])
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// scrape reads the /metrics counters and gauges, by sample name.
func (d *daemon) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	err := d.call(http.MethodGet, "/metrics", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 || strings.HasPrefix(f[0], "#") {
				continue
			}
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
		return sc.Err()
	})
	return out, err
}

// ledgerSink keeps the ledger record fsctd writes for each finished
// job; it carries the job's recorded phases, counters and pools.
type ledgerSink struct {
	mu   sync.Mutex
	recs map[string]ledger.Record
}

func (s *ledgerSink) AppendRun(rec ledger.Record, _ int, _ time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Server != nil {
		s.recs[rec.Server.JobID] = rec
	}
	return nil
}

func runDaemon(cfg config, cold bool) (*result, error) {
	res := newResult()
	res.seedFree = !cold
	mix := daemonMix(cfg)
	jobs, kinds := daemonJobs(cfg, mix, cold)
	warm := warmSpecs(cfg, mix, cold)
	if cfg.tr != nil {
		return res, traceDaemon(cfg, res, mix, jobs, kinds, warm, cold)
	}

	// Set-up runs five times and setup_s is the median: twice before the
	// timed loop, once for the daemon the loop runs on, and twice after
	// it, so the median spans the run as the job times do.
	var setup []float64
	setUp := func() (*daemon, error) {
		d, s, err := setUpDaemon(cfg, warm, nil)
		setup = append(setup, s)
		return d, err
	}
	spares := func() error {
		for range 2 {
			d, err := setUp()
			if err != nil {
				return err
			}
			d.close()
		}
		return nil
	}
	if err := spares(); err != nil {
		return nil, err
	}
	d, err := setUp()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	samples, wall := d.loop(cfg, jobs)
	res.metrics["retained_heap_mb"] = heapInuseMB()
	d.close()
	if err := spares(); err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(setup)
	res.note("setup: server start, first healthz and %d warm-up jobs, median of %d", len(warm), len(setup))
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.end.Sub(s.start)
	}
	res.metrics["wall_s"] = secs(wall)
	setLatencyMetrics(res, lat, len(jobs), wall)
	res.note("closed loop: %d clients, %d jobs", cfg.nproc, len(jobs))
	checkDaemon(cfg, res, samples, cold)
	return res, nil
}

// checkDaemon counts every job that failed or was refused, and checks
// job outputs against task.Run on the same spec in this process: every
// job of daemon-hot, and a seeded tenth of daemon-cold's jobs.
func checkDaemon(cfg config, res *result, samples []jobSample, cold bool) {
	check := make([]bool, len(samples))
	if cold {
		n := (len(samples) + 9) / 10
		for _, i := range rand.New(rand.NewSource(cfg.seed)).Perm(len(samples))[:n] {
			check[i] = true
		}
	} else {
		for i := range check {
			check[i] = true
		}
	}
	want := map[string]string{}
	checked := 0
	for i, s := range samples {
		res.attempted++
		if s.err != nil {
			res.fail("%s: %v", specKey(s.spec), s.err)
			continue
		}
		if !check[i] {
			continue
		}
		key := specKey(s.spec)
		w, ok := want[key]
		if !ok {
			r, err := task.Run(context.Background(), s.spec, engine.New(), nil)
			if err != nil {
				res.fail("%s: task.Run: %v", key, err)
				continue
			}
			w = scrub(r.Output)
			want[key] = w
		}
		checked++
		if scrub(s.output) != w {
			res.fail("%s: daemon output differs from task.Run", key)
			continue
		}
		res.record(key, s.output)
	}
	res.note("oracle: %d job outputs checked against task.Run over %d specs", checked, len(want))
}

// traceDaemon is the traced daemon run: an untraced closed loop (the
// overhead baseline), then the same jobs against a fresh daemon with a
// ledger sink, each job a span tree — submit, queue, run with the
// program's recorded phases under it, deliver, result — and the build
// and engine layer timings for one spec of each mix entry.
func traceDaemon(cfg config, res *result, mix []weighted, jobs []task.Spec, kinds []int, warm []task.Spec, cold bool) error {
	tr := cfg.tr
	d, _, err := setUpDaemon(cfg, warm, nil)
	if err != nil {
		return err
	}
	plain, wallU := d.loop(cfg, jobs)
	d.close()
	checkDaemon(cfg, res, plain, cold)
	plain = nil

	sink := &ledgerSink{recs: map[string]ledger.Record{}}
	if d, _, err = setUpDaemon(cfg, warm, sink); err != nil {
		return err
	}
	heap0 := heapInuseMB()
	before, err := d.scrape()
	if err != nil {
		d.close()
		return err
	}
	root := tr.open(0, cfg.workload+" loop")
	samples, wallT := d.loop(cfg, jobs)
	tr.end(root)
	after, err := d.scrape()
	heap1 := heapInuseMB()
	d.close() // waits for the runners, so every ledger record is in
	if err != nil {
		return err
	}
	checkDaemon(cfg, res, samples, cold)

	// One spec per mix entry for the layer timings: the first job drawn
	// from it (daemon-cold's jobs of one entry differ only by seed).
	var specs []task.Spec
	entry := make([]int, len(mix)) // mix index -> position in specs, or -1
	for k := range entry {
		entry[k] = -1
	}
	for i, k := range kinds {
		if entry[k] < 0 {
			entry[k] = len(specs)
			specs = append(specs, jobs[i])
		}
	}
	builds, err := timeLayers(cfg, res, specs)
	if err != nil {
		return err
	}

	all, flows := newObsTotals(), newObsTotals()
	var latSum, runSum, buildSum time.Duration
	for i, s := range samples {
		if s.err != nil {
			continue
		}
		started, finished := *s.view.Started, *s.view.Finished
		job := tr.add(root, "job", srcBench, s.start, s.end, "kind", s.spec.Kind, "circuit", s.spec.Circuit, "id", s.view.ID)
		tr.add(job, "serve.submit", srcBench, s.start, s.posted)
		tr.add(job, "serve.queue", srcProgram, s.view.Submitted, started)
		run := tr.add(job, "serve.run", srcProgram, started, finished, "kind", s.spec.Kind)
		tr.add(job, "serve.deliver", srcBench, finished, s.done)
		tr.add(job, "serve.result", srcBench, s.done, s.end)
		flat := sink.recs[s.view.ID].Metrics
		replayPhases(tr, run, started, flatPhases(flat))
		all.add(flat)
		if s.spec.Kind == task.KindFlow {
			flows.add(flat)
		}
		latSum += s.end.Sub(s.start)
		runSum += finished.Sub(started)
		buildSum += builds[entry[kinds[i]]]
	}
	setShares(res, selfByName(tr.finish()), latSum)
	setProgramMetrics(res, all, flows, latSum)
	// Every daemon job rebuilds its design (gen + tpi) before it runs;
	// the share estimates that from the spec's timed BuildDesign.
	res.metrics["task.build_share"] = ratio(float64(buildSum), float64(runSum))
	delta := func(name string) int64 { return int64(after[name] - before[name]) }
	setCacheMetrics(res, delta("fsct_serve_cache_hits_total"), delta("fsct_serve_cache_misses_total"),
		delta("fsct_serve_cache_evictions_total"))
	res.metrics["journal.heap_per_job_mb"] = (heap1 - heap0) / float64(len(jobs))
	res.metrics["obs.trace_overhead"] = ratio(secs(wallT), secs(wallU))
	res.note("closed loops: %d clients, %d jobs; untraced %.3fs, traced %.3fs", cfg.nproc, len(jobs), secs(wallU), secs(wallT))
	return nil
}
