package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/selfheal"
	"repro/internal/serve"
	"repro/internal/transcache"
	"repro/internal/workloads"
)

// The daemon job mix, per block of six jobs: three warm pool programs
// (transcache reads), one never-seen program (misses plus journaled
// stores) and two short Figure 12 kernels.
type jobKind int

const (
	jobPool jobKind = iota
	jobFresh
	jobKernel
)

var daemonMix = [6]jobKind{jobPool, jobPool, jobPool, jobFresh, jobKernel, jobKernel}

// daemonKernels are the short Figure 12 kernels the daemon serves, run
// with daemonKernelThreads guest vCPUs at scale 1.
var daemonKernels = []string{"blackscholes", "canneal", "facesim", "fencechain",
	"linearregression", "matrixmultiply", "stringmatch", "swaptions"}

const (
	daemonKernelThreads = 2
	daemonPool          = 6 // warm coldcode programs
	daemonTenants       = 4
	daemonReplays       = 12 // jobs of a window run again standalone
)

// daemonJob is one scheduled request body with the program it runs.
type daemonJob struct {
	prog program
	body []byte
}

// jobResult is what one submission returned.
type jobResult struct {
	lat, late    float64 // from the due time; sending lateness
	execS        float64 // JobResponse.DurationMS
	hits, misses uint64
	retries      int
	shed         bool
	err          error
}

// daemon drives serve.Server in process through its HTTP handler, open
// loop at a fixed rate, spread across tenants, with a transcache journal
// in a temporary directory.
type daemon struct {
	seed int64
	rate float64
	jobs int // scheduled jobs in total

	progs    []program // every program built in set-up
	schedule []daemonJob
	next     int

	dir   string
	cache *transcache.Cache
	srv   *serve.Server
	h     http.Handler

	// Of the last window:
	results []jobResult
	jobsRun []daemonJob
	stores  uint64
	first   dbtCounts
}

// newDaemon schedules round(rate × seconds) jobs: a traced run's two
// windows of seconds/2 each send the same jobs as one untraced window.
func newDaemon(seed int64, rate, seconds float64) *daemon {
	return &daemon{seed: seed, rate: rate, jobs: int(math.Round(rate * seconds))}
}

func (d *daemon) setup(tr *tracer) error {
	if err := d.close(); err != nil {
		return err
	}
	if d.jobs == 0 {
		return fmt.Errorf("daemon: no jobs planned")
	}
	rng := rand.New(rand.NewSource(d.seed))
	d.progs = d.progs[:0]
	d.schedule = d.schedule[:0]
	d.next = 0

	// job addresses req to tenant i mod daemonTenants.
	job := func(p program, req serve.JobRequest, i int) daemonJob {
		req.Tenant = fmt.Sprintf("tenant-%d", i%daemonTenants)
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a JobRequest always marshals
		}
		return daemonJob{prog: p, body: body}
	}
	type template struct {
		prog program
		req  serve.JobRequest
	}
	var pool, kernels []template
	for i := 0; i < daemonPool; i++ {
		p, err := buildProgram(tr, fmt.Sprintf("pool-%d-%d", d.seed, i), coldProgram(programSeed(d.seed, i)))
		if err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		d.progs = append(d.progs, p)
		pool = append(pool, template{p, serve.JobRequest{Image: p.img.Encode()}})
	}
	for _, name := range daemonKernels {
		k, err := workloads.KernelByName(name)
		if err != nil {
			return err
		}
		pb, err := k.Build(daemonKernelThreads, 1)
		if err != nil {
			return fmt.Errorf("daemon: building %s: %w", name, err)
		}
		p, err := buildProgram(tr, name, pb)
		if err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		d.progs = append(d.progs, p)
		kernels = append(kernels, template{p, serve.JobRequest{Kernel: name, Threads: daemonKernelThreads, Scale: 1}})
	}

	// The schedule: each block of six jobs is a shuffle of daemonMix; pool
	// programs and kernels are dealt from decks reshuffled when empty, so
	// every stretch of the schedule holds each about equally often.
	deck := func(n int) func() int {
		var order []int
		return func() int {
			if len(order) == 0 {
				order = rng.Perm(n)
			}
			i := order[0]
			order = order[1:]
			return i
		}
	}
	nextPool, nextKernel := deck(len(pool)), deck(len(kernels))
	fresh := 0
	for len(d.schedule) < d.jobs {
		mix := daemonMix
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
		for _, kind := range mix {
			var t template
			switch kind {
			case jobPool:
				t = pool[nextPool()]
			case jobKernel:
				t = kernels[nextKernel()]
			case jobFresh:
				p, err := buildProgram(tr, fmt.Sprintf("fresh-%d-%d", d.seed, fresh), coldProgram(programSeed(d.seed, daemonPool+fresh)))
				if err != nil {
					return fmt.Errorf("daemon: %w", err)
				}
				fresh++
				d.progs = append(d.progs, p)
				t = template{p, serve.JobRequest{Image: p.img.Encode()}}
			}
			d.schedule = append(d.schedule, job(t.prog, t.req, len(d.schedule)))
			if len(d.schedule) == d.jobs {
				break
			}
		}
	}

	dir, err := os.MkdirTemp("", "perfbench-daemon-")
	if err != nil {
		return err
	}
	d.dir = dir
	d.cache, err = transcache.Open(filepath.Join(dir, "transcache.jsonl"), transcache.Options{})
	if err != nil {
		return err
	}
	d.srv = serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), Cache: d.cache, Seed: d.seed})
	d.h = d.srv.Handler()

	// Warm-up: every pool program and kernel once, so their jobs are
	// transcache reads.
	for i, t := range append(pool, kernels...) {
		if r := d.submit(job(t.prog, t.req, i), time.Now(), nil, -1); r.err != nil {
			return fmt.Errorf("daemon warm-up: %w", r.err)
		}
	}
	return nil
}

// submit sends one job through the handler and checks its response:
// status 200, job status ok, and the native build's exit code.
func (d *daemon) submit(j daemonJob, due time.Time, tr *tracer, op int) jobResult {
	r := jobResult{late: time.Since(due).Seconds()}
	s := tr.begin("op", op, -1)
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(j.body)))
	tr.end(s)
	r.lat = time.Since(due).Seconds()
	if rec.Code != http.StatusOK {
		r.shed = rec.Code == http.StatusTooManyRequests
		r.err = fmt.Errorf("%s: HTTP %d: %s", j.prog.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return r
	}
	var resp serve.JobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		r.err = fmt.Errorf("%s: decoding response: %w", j.prog.name, err)
		return r
	}
	r.execS = float64(resp.DurationMS) / 1e3
	r.hits, r.misses = resp.CacheHits, resp.CacheMisses
	r.retries = resp.Attempts - 1
	switch {
	case resp.Status != serve.StatusOK:
		r.err = fmt.Errorf("%s: job status %s: %s", j.prog.name, resp.Status, resp.Error)
	case resp.ExitCode != j.prog.exit:
		r.err = fmt.Errorf("%s: exit code %d, native build exits %d", j.prog.name, resp.ExitCode, j.prog.exit)
	}
	return r
}

// measure sends the next round(rate × seconds) scheduled jobs, job i due
// at i/rate seconds after the start, each on its own goroutine so a slow
// server cannot slow the sender; latency runs from the due time.
func (d *daemon) measure(seconds float64, tr *tracer) phase {
	n := int(math.Round(d.rate * seconds))
	if d.next+n > len(d.schedule) {
		n = len(d.schedule) - d.next
	}
	jobs := d.schedule[d.next : d.next+n]
	d.next += n
	d.jobsRun = jobs
	d.results = make([]jobResult, n)
	stores0 := d.cache.Stats().Stores

	runtime.GC()
	a0 := heapAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range jobs {
		due := start.Add(time.Duration(float64(i) / d.rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			d.results[i] = d.submit(jobs[i], due, tr, i)
		}(i, due)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start).Seconds(), alloc: heapAlloc() - a0}
	d.stores = d.cache.Stats().Stores - stores0
	for i, r := range d.results {
		p.attempted++
		lat := r.lat
		if r.err != nil {
			p.fail(i, r.err)
			lat = math.Inf(1)
		} else {
			p.busy += r.execS
		}
		p.lat = append(p.lat, lat)
	}
	if err := d.replay(tr); err != nil {
		p.fail(0, err)
	}
	return p
}

// replay runs the first jobs of the window again after it, outside the
// server, one standalone runtime each: the server keeps its runtimes
// private, so this is where the daemon's simulated cycles come from.
// Traced, it also times their blocks through the frontend, optimizer and
// backend and then through Store and Load of a scratch transcache.
func (d *daemon) replay(tr *tracer) error {
	d.first = dbtCounts{}
	for i, j := range d.jobsRun {
		if i == daemonReplays {
			break
		}
		root := tr.begin("replay", i, -1)
		err := d.replayJob(tr, i, root, j)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying job %d: %w", i, err)
		}
	}
	return nil
}

func (d *daemon) replayJob(tr *tracer, op, root int, j daemonJob) error {
	rt, err := runGuest(tr, op, root, j.prog, core.WithVariant(core.VariantRisotto), core.WithSelfHeal(true))
	if err != nil {
		return err
	}
	d.first.addRun(rt, j.prog.nativeInsts)
	if tr == nil {
		return nil
	}
	blocks, pcs, err := replayBlocks(tr, op, root, rt, pipelineFor(core.VariantRisotto), &d.first)
	if err != nil {
		return err
	}
	scratch, err := transcache.Open(filepath.Join(d.dir, fmt.Sprintf("scratch-%d.jsonl", op)), transcache.Options{})
	if err != nil {
		return err
	}
	image := transcache.Fingerprint(j.prog.img) + "/" + core.VariantRisotto.String()
	for i, blk := range blocks {
		s := tr.begin("transcache.store", op, root)
		err := scratch.Store(image, pcs[i], selfheal.TierFull, blk)
		tr.end(s)
		if err != nil {
			scratch.Close()
			return err
		}
	}
	for _, pc := range pcs {
		s := tr.begin("transcache.load", op, root)
		_, ok := scratch.Load(image, pc, selfheal.TierFull)
		tr.end(s)
		if !ok {
			scratch.Close()
			return fmt.Errorf("scratch transcache lost block %#x", pc)
		}
	}
	return scratch.Close()
}

func (d *daemon) simCyclesPerOp() float64 { return d.first.cyclesPerOp() }

func (d *daemon) layers(tr *tracer, m map[string]float64) {
	lt := tr.layers()
	dbtLayers(lt, d.first, m)
	nativeLayers(lt, d.progs, m)
	var hits, misses uint64
	var wait, exec float64
	var shed, retries int
	var late latencies
	for _, r := range d.results {
		hits += r.hits
		misses += r.misses
		wait += r.lat - r.execS
		exec += r.execS
		retries += r.retries
		if r.shed {
			shed++
		}
		late = append(late, r.late)
	}
	n := float64(len(d.results))
	m["transcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["transcache.stores"] = ratio(float64(d.stores), n)
	m["transcache.load_s"] = lt.mean("transcache.load")
	m["transcache.store_s"] = lt.mean("transcache.store")
	m["serve.queue_wait_s"] = ratio(wait, n)
	m["serve.exec_s"] = ratio(exec, n)
	m["serve.shed"] = float64(shed)
	m["serve.retries"] = float64(retries)
	m["bench.late_p90_s"] = late.quantile(0.9)
}

func (d *daemon) inputs() []string {
	var out []string
	for _, p := range d.progs {
		out = append(out, p.name+"="+transcache.Fingerprint(p.img))
	}
	return out
}

// close drains the server and removes the journal directory.
func (d *daemon) close() error {
	var err error
	if d.srv != nil {
		err = d.srv.Drain()
		d.srv, d.h = nil, nil
	}
	if d.cache != nil {
		if cerr := d.cache.Close(); err == nil {
			err = cerr
		}
		d.cache = nil
	}
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
		d.dir = ""
	}
	return err
}
