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
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/service"
)

// The explore_jobs workload: a closed loop of 2 HTTP clients against an
// in-process iseserve (service.NewMux over service.New with 2 runners and a
// temporary state directory). Each job explores one kernel on one machine
// (7 benchmarks × O0/O3 × 6 machines, 3 hot blocks, core.DefaultParams with
// 1 worker so 2 runners use the 2 cores). Jobs run in whole rounds, each a
// seeded shuffle of all 84 combinations with its own exploration seed. The
// number of rounds is fixed by --seconds (one round per roundSeconds, at
// least minRounds), so every commit measures the same work.

const (
	jobClients = 2
	jobRunners = 2
	jobHot     = 3
	minRounds  = 2 // 168 jobs, so at least 16 lie beyond p90
	// roundSeconds is about how long one round took on 2 CPUs when the
	// benchmark was introduced.
	roundSeconds = 5
	// warmupCombo is the set-up job: jpeg/O3 on the first machine, the
	// heaviest combination, which sizes the runners' arenas.
	warmupBench, warmupOpt = "jpeg", "O3"
	// jobSetups is how many daemons set-up starts; setup_s is the median.
	jobSetups = 5
)

// jobCombo is one kernel on one machine.
type jobCombo struct {
	kernel
	machine machine.Config
}

func jobCombos() []jobCombo {
	var out []jobCombo
	for _, k := range kernels() {
		for _, cfg := range machine.Configs() {
			out = append(out, jobCombo{k, cfg})
		}
	}
	return out
}

// jobParams are the exploration parameters of round r: the seed argument
// drives every round's exploration seed.
func jobParams(seed int64, r int) core.Params {
	p := core.DefaultParams()
	p.Seed = seed*1000 + int64(r)
	p.Workers = 1
	return p
}

func (c jobCombo) spec(p core.Params) service.JobSpec {
	return service.JobSpec{
		Name:     c.key() + " " + c.machine.Name,
		Bench:    c.bench,
		OptLevel: c.opt,
		Hot:      jobHot,
		Machine:  service.MachineSpec{Issue: c.machine.IssueWidth, ReadPorts: c.machine.ReadPorts, WritePorts: c.machine.WritePorts},
		Params:   &p,
	}
}

// daemon is an in-process iseserve.
type daemon struct {
	m   *service.Manager
	srv *httptest.Server
	dir string
}

func startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp(".bench_build", "state-")
	if err != nil {
		return nil, err
	}
	m, err := service.New(service.Config{Runners: jobRunners, StateDir: dir, Logf: func(string, ...any) {}})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemon{m: m, srv: httptest.NewServer(service.NewMux(m)), dir: dir}, nil
}

// stop closes the listener (waiting for open requests), drains the runners
// and removes the state directory.
func (d *daemon) stop() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.m.Drain(ctx)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRun is one client's view of one job.
type jobRun struct {
	combo   int
	round   int
	submit  time.Duration // POST round trip
	lat     time.Duration // submit to terminal event
	get     time.Duration // GET /v1/jobs/{id} round trip after the terminal event
	events  int
	resumes int // SSE reconnections
	status  service.JobStatus
	err     error
}

// runJob submits spec, follows its SSE stream to the terminal event, then
// fetches the final status. tr, when non-nil, records the client spans.
func runJob(client *http.Client, base string, spec service.JobSpec, tr *tracer) jobRun {
	var out jobRun
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	js := tr.begin("job", 0)
	defer tr.end(js)
	sp := tr.begin("service.submit", js)
	t0 := time.Now()
	var st service.JobStatus
	out.err = doJSON(client, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &st)
	out.submit = time.Since(t0)
	tr.end(sp)
	if out.err != nil {
		return out
	}

	sp = tr.begin("service.stream", js)
	out.events, out.resumes, out.err = follow(client, base+"/v1/jobs/"+st.ID+"/events")
	out.lat = time.Since(t0)
	tr.end(sp)
	if out.err != nil {
		return out
	}

	sp = tr.begin("service.get", js)
	t1 := time.Now()
	out.err = doJSON(client, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, http.StatusOK, &out.status)
	out.get = time.Since(t1)
	tr.end(sp)
	return out
}

// doJSON makes one request and decodes a JSON reply with status want. Any
// other status — 429 queue full included — is an error.
func doJSON(client *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// maxResumes bounds the reconnections of one event stream.
const maxResumes = 5

// follow reads a job's SSE stream until its terminal event and returns the
// number of events received and of reconnections. The bus drops events for
// a subscriber that falls behind, the terminal one included; a client then
// reconnects with Last-Event-ID and the history after that point is
// replayed, as the service documents.
func follow(client *http.Client, url string) (events, resumes int, err error) {
	last, seq := "", 0
	for {
		var got int
		got, last, seq, err = stream(client, url, seq)
		events += got
		if err != nil || last == service.EventDone {
			return events, resumes, err
		}
		if last == service.EventFailed || last == service.EventCanceled {
			return events, resumes, fmt.Errorf("job ended with %q", last)
		}
		if resumes == maxResumes {
			return events, resumes, fmt.Errorf("stream ended %d times without a terminal event", resumes+1)
		}
		resumes++
	}
}

// stream reads one connection of an SSE stream from sequence number from
// and returns the events read, the last event type and the last sequence
// number.
func stream(client *http.Client, url string, from int) (n int, last string, seq int, err error) {
	seq = from
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", seq, err
	}
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(from))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", seq, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", seq, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			if seq, err = strconv.Atoi(id); err != nil {
				return n, last, from, fmt.Errorf("bad event id %q", id)
			}
			continue
		}
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			n++
			last = ev
			if ev == service.EventDone || ev == service.EventFailed || ev == service.EventCanceled {
				break
			}
		}
	}
	return n, last, seq, sc.Err()
}

// dispenser hands out jobs to the clients round by round.
type dispenser struct {
	mu     sync.Mutex
	rng    *rand.Rand
	round  []int // the current round's shuffled combination indices
	jobs   int   // jobs handed out so far
	rounds int
}

// take returns the next job's combination, index and round, or false when
// every round has been handed out.
func (d *dispenser) take() (combo, job, round int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.round)
	if d.jobs == d.rounds*n {
		return 0, 0, 0, false
	}
	if d.jobs%n == 0 {
		d.round = d.rng.Perm(n)
	}
	combo, job, round = d.round[d.jobs%n], d.jobs, d.jobs/n
	d.jobs++
	return combo, job, round, true
}

// loop runs the closed loop against d and returns every job in hand-out
// order, with the loop's wall time.
func loop(d *daemon, combos []jobCombo, seed int64, rounds int, tr *tracer) ([]jobRun, time.Duration) {
	disp := &dispenser{rng: rand.New(rand.NewSource(seed)), round: make([]int, len(combos)), rounds: rounds}
	var (
		mu   sync.Mutex
		runs = make([]jobRun, rounds*len(combos))
		wg   sync.WaitGroup
	)
	client := d.srv.Client()
	start := time.Now()
	for i := 0; i < jobClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, j, r, ok := disp.take()
				if !ok {
					return
				}
				run := runJob(client, d.srv.URL, combos[c].spec(jobParams(seed, r)), tr)
				run.combo, run.round = c, r
				mu.Lock()
				runs[j] = run
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, time.Since(start)
}

// buildOwn builds, for every kernel, the hot-block DFGs a job explores,
// independently of the service. tr, when non-nil, records the stages.
func buildOwn(tr *tracer) (map[kernel][]*dfg.DFG, error) {
	own := map[kernel][]*dfg.DFG{}
	for _, k := range kernels() {
		sp := tr.begin("vm.profile", 0)
		bm, err := bench.Get(k.bench, k.opt)
		if err != nil {
			return nil, err
		}
		prof, err := bm.Run()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("dfg.build", 0)
		own[k] = dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, jobHot), prof.BlockCounts)
		tr.end(sp)
	}
	return own, nil
}

func runJobs(cfg config) (map[string]float64, *tally, error) {
	t := &tally{}
	combos := jobCombos()
	rounds := max(minRounds, int(cfg.seconds/(roundSeconds*time.Second)))
	warm := jobCombo{kernel{warmupBench, warmupOpt}, machine.Configs()[0]}

	var (
		setups []float64
		d      *daemon
		err    error
	)
	for i := 0; i < jobSetups; i++ {
		if d != nil {
			t.check("daemon stop", d.stop())
		}
		t0 := time.Now()
		if d, err = startDaemon(); err != nil {
			return nil, nil, err
		}
		r := runJob(d.srv.Client(), d.srv.URL, warm.spec(jobParams(cfg.seed, 0)), nil)
		setups = append(setups, time.Since(t0).Seconds())
		t.check("warm-up job", r.err)
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	stderrf("explore_jobs: closed loop of %d clients over %d rounds", jobClients, rounds)
	before := readCounters()
	runs, wall := loop(d, combos, cfg.seed, rounds, tr)
	after := readCounters()

	// The daemon's listing must hold every job as its client first read it.
	var all struct{ Jobs []service.JobStatus }
	err = doJSON(d.srv.Client(), http.MethodGet, d.srv.URL+"/v1/jobs", nil, http.StatusOK, &all)
	if err == nil {
		err = sameListing(all.Jobs, runs)
	}
	t.check("job listing", err)
	t.check("daemon stop", d.stop())

	stderrf("explore_jobs: oracle over %d jobs", len(runs))
	own, err := buildOwn(nil)
	if err != nil {
		return nil, nil, err
	}
	kern := sched.NewScheduler()
	var lats, gets []float64
	for _, run := range runs {
		c := combos[run.combo]
		err := run.err
		if err == nil {
			err = checkJob(run.status, own[c.kernel], c.machine, kern)
		}
		t.check("job "+c.key()+" "+c.machine.Name, err)
		if run.err == nil {
			lats = append(lats, run.lat.Seconds())
			gets = append(gets, run.get.Seconds())
		}
	}
	oneISE, mean, block := jobReductions(runs)
	fmt.Printf("explore_jobs: %d jobs in %d rounds over %.3fs; p50 %.4fs p90 %.4fs; %.2f jobs/s\n",
		len(runs), rounds, wall.Seconds(), quantile(lats, 0.5), quantile(lats, 0.9), float64(len(lats))/wall.Seconds())

	if cfg.traced {
		return tracedJobs(cfg, tr, runs, wall, combos, before, after, t)
	}
	return map[string]float64{
		"setup_s":               median(setups),
		"matrix_s":              wall.Seconds() / float64(rounds),
		"resweep_s":             median(gets),
		"job_p50_s":             quantile(lats, 0.5),
		"job_p90_s":             quantile(lats, 0.9),
		"jobs_per_s":            float64(len(lats)) / wall.Seconds(),
		"one_ise_reduction_pct": oneISE,
		"mean_reduction_pct":    mean,
		"job_reduction_pct":     block,
	}, t, nil
}

// sameListing checks that a job listing holds every finished job exactly as
// its client's GET /v1/jobs/{id} returned it.
func sameListing(listed []service.JobStatus, runs []jobRun) error {
	byID := map[string]service.JobStatus{}
	for _, st := range listed {
		byID[st.ID] = st
	}
	for _, run := range runs {
		if run.err != nil {
			continue
		}
		st, ok := byID[run.status.ID]
		if !ok {
			return fmt.Errorf("job %s missing from the listing", run.status.ID)
		}
		x, errA := json.Marshal(st)
		y, errB := json.Marshal(run.status)
		if errA != nil || errB != nil || !bytes.Equal(x, y) {
			return fmt.Errorf("job %s listing differs from its GET", run.status.ID)
		}
	}
	return nil
}

// jobReductions averages, over the successful jobs, the weighted hot-block
// reduction of the first ISE alone and of all ISEs, and over every returned
// block its own reduction; all in percent.
func jobReductions(runs []jobRun) (oneISE, mean, block float64) {
	jobs, blocks := 0, 0
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		var base, final, first float64
		for _, b := range r.status.Blocks {
			w := float64(b.Weight)
			base += w * float64(b.BaseCycles)
			final += w * float64(b.FinalCycles)
			if len(b.ISEs) > 0 {
				first += w * float64(b.ISEs[0].SavingCycles)
			}
			block += b.Reduction
			blocks++
		}
		if base > 0 {
			oneISE += first / base
			mean += (base - final) / base
		}
		jobs++
	}
	if jobs == 0 || blocks == 0 {
		return 0, 0, 0
	}
	return 100 * oneISE / float64(jobs), 100 * mean / float64(jobs), 100 * block / float64(blocks)
}

// tracedJobs computes the per-layer metrics of explore_jobs: the service's
// own timestamps for every job, a direct core exploration of every job's
// blocks (which must reproduce the service's results) for the service
// overhead, and the benchmark's own profile, DFG and base-schedule stages.
func tracedJobs(cfg config, tr *tracer, runs []jobRun, wall time.Duration, combos []jobCombo,
	before, after map[string]float64, t *tally) (map[string]float64, *tally, error) {
	m := map[string]float64{}
	for k, v := range counterMetrics(before, after) {
		m[k] = v
	}
	var submit, queue, run, events, resumes float64
	byKernel := map[kernel]float64{}
	var done []jobRun
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		st := r.status
		if st.StartedAt == nil || st.FinishedAt == nil {
			t.check("job timestamps", fmt.Errorf("job %s lacks start or finish time", st.ID))
			continue
		}
		rs := st.FinishedAt.Sub(*st.StartedAt).Seconds()
		submit += r.submit.Seconds()
		queue += st.StartedAt.Sub(st.SubmittedAt).Seconds()
		run += rs
		events += float64(r.events)
		resumes += float64(r.resumes)
		byKernel[combos[r.combo].kernel] += rs
		done = append(done, r)
	}
	clientTime := tr.total("service.submit", 0) + tr.total("service.stream", 0) + tr.total("service.get", 0)

	stderrf("explore_jobs: direct exploration of %d jobs", len(done))
	own, err := buildOwn(tr)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("sched.base", 0)
	kern := sched.NewScheduler()
	for _, c := range combos {
		for _, d := range own[c.kernel] {
			if _, err := kern.Schedule(d, sched.AllSoftware(d.Len()), c.machine); err != nil {
				t.check("base schedule", err)
			}
		}
	}
	tr.end(sp)
	direct := exploreDirect(tr, cfg.seed, combos, own, done, t)

	m["vm.profile_s"] = tr.total("vm.profile", 0).Seconds()
	m["dfg.build_s"] = tr.total("dfg.build", 0).Seconds()
	m["sched.base_s"] = tr.total("sched.base", 0).Seconds()
	m["core.explore_s"] = direct
	m["flow.price_s"] = tr.total("flow.price", 0).Seconds()
	m["service.submit_s"] = submit
	m["service.queue_wait_s"] = queue
	m["service.run_s"] = run
	m["service.events"] = events
	m["service.sse_resumes"] = resumes
	m["service.overhead_s"] = run - direct
	m["trace.wall_s"] = wall.Seconds()
	m["trace.coverage"] = clientTime.Seconds() / (jobClients * wall.Seconds())
	for _, k := range kernels() {
		m["flow.pool_s."+k.key()] = byKernel[k]
	}
	// explore_jobs never calls the SI baseline, merging, selection or
	// replacement, and has no untraced twin in the same run.
	for _, k := range []string{"baseline.explore_s", "merging.merge_s", "replace.apply_cold_s", "replace.apply_warm_s",
		"selection.select_s", "merging.candidates", "merging.groups", "selection.selected", "replace.instances", "trace.overhead_s"} {
		m[k] = 0
	}

	n := float64(len(done))
	fmt.Printf("explore_jobs: per job: submit %.4fs, queue wait %.4fs, run %.4fs, direct explore %.4fs, %.1f events\n",
		submit/n, queue/n, run/n, direct/n, events/n)
	fmt.Printf("explore_jobs: client spans cover %.1f%% of %d clients × wall\n", 100*m["trace.coverage"], jobClients)
	printCounters(before, after)
	if err := tr.write(traceFile(cfg)); err != nil {
		stderrf("trace not written: %v", err)
	}
	return m, t, nil
}

// exploreDirect explores every finished job's blocks directly through core,
// on jobRunners goroutines like the service's runners, and checks each
// result against the job's. It returns the total exploration seconds.
func exploreDirect(tr *tracer, seed int64, combos []jobCombo, own map[kernel][]*dfg.DFG, jobs []jobRun, t *tally) float64 {
	todo := make(chan jobRun, len(jobs)) // holds every job up front
	for _, j := range jobs {
		todo <- j
	}
	close(todo)
	var wg sync.WaitGroup
	scr := core.NewScratch()
	for w := 0; w < jobRunners; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kern := sched.NewScheduler()
			for job := range todo {
				combo := combos[job.combo]
				t.check("direct exploration of "+combo.key()+" "+combo.machine.Name+" matches the service",
					directJob(tr, combo, own[combo.kernel], jobParams(seed, job.round), job.status.Blocks, scr, kern))
			}
		}()
	}
	wg.Wait()
	return tr.total("core.explore", 0).Seconds()
}

// directJob explores and prices one job's blocks directly and compares the
// results with the service's.
func directJob(tr *tracer, combo jobCombo, dfgs []*dfg.DFG, p core.Params, blocks []service.BlockResult,
	scr *core.Scratch, kern *sched.Scheduler) error {
	if len(blocks) != len(dfgs) {
		return fmt.Errorf("job has %d blocks, direct run %d", len(blocks), len(dfgs))
	}
	scr.Prewarm(dfgs...)
	for i, d := range dfgs {
		cache := core.NewEvalCache()
		sp := tr.begin("core.explore", 0)
		res, _, err := core.ExploreResumable(context.Background(), d, combo.machine, p,
			core.ResumeOptions{Cache: cache, Scratch: scr})
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("flow.price", 0)
		gains, err := price(d, combo.machine, res.ISEs, cache, kern)
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := sameBlock(blocks[i], d, res, gains); err != nil {
			return err
		}
	}
	return nil
}

// sameBlock checks that a direct exploration of d reproduces the service's
// block result, and that pricing its ISEs cumulatively ends at the
// exploration's final cycle count.
func sameBlock(b service.BlockResult, d *dfg.DFG, res *core.Result, gains []float64) error {
	if b.Block != d.Name || b.BaseCycles != res.BaseCycles || b.FinalCycles != res.FinalCycles ||
		b.Rounds != res.Rounds || b.Iterations != res.Iterations || len(b.ISEs) != len(res.ISEs) {
		return fmt.Errorf("block %s: service %d→%d cycles, %d ISEs; direct %d→%d, %d",
			d.Name, b.BaseCycles, b.FinalCycles, len(b.ISEs), res.BaseCycles, res.FinalCycles, len(res.ISEs))
	}
	for i, e := range res.ISEs {
		if !reflect.DeepEqual(b.ISEs[i].Nodes, e.Nodes.Values()) {
			return fmt.Errorf("block %s ISE %d: service %v, direct %v", d.Name, i, b.ISEs[i].Nodes, e.Nodes.Values())
		}
	}
	priced := float64(res.BaseCycles)
	for _, g := range gains {
		priced -= g
	}
	if priced != float64(res.FinalCycles) {
		return fmt.Errorf("block %s: priced ISEs end at %.0f cycles, exploration at %d", d.Name, priced, res.FinalCycles)
	}
	return nil
}
