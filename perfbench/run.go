package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"perfplay/internal/corpus"
	"perfplay/internal/pipeline"
)

// bench is one run of one workload.
type bench struct {
	spec   *workloadSpec
	seed   int64
	secs   int
	traced bool
	dir    string
	bin    string

	pool []*poolTrace
	d    *daemon
	// steal0 and ticks0 are the machine's CPU-steal and total CPU ticks
	// when the run began.
	steal0, ticks0 float64

	attempted int
	failures  []string
	metrics   map[string]metric
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) set(name string, v float64, unit, note string) {
	b.metrics[name] = metric{Value: v, Unit: unit, note: note}
}

func (b *bench) setLayer(name string, v float64, unit, note string) {
	b.metrics[name] = metric{Value: v, Unit: unit, note: note, perLayer: true}
}

// run sets up, checks the golden request, measures the daemon and the
// in-process path, and checks every report.
func (b *bench) run() error {
	b.steal0, b.ticks0 = cpuTicks()
	if err := b.setup(); err != nil {
		return err
	}
	defer func() {
		if b.d != nil {
			_, _ = b.d.stop() // error path only: the run already failed
		}
	}()
	b.golden()

	ip := newInProcess(b)
	before, err := b.d.scrape()
	if err != nil {
		return err
	}
	var plan []plannedJob
	var jobs []jobResult
	// warm is how many of the first jobs are an untimed warm-up: they
	// are checked, but give no latency samples.
	warm := 0
	var busy time.Duration
	// rates are the per-cycle throughputs of a cycled run.
	var rates []float64
	clients := b.spec.Clients
	if b.spec.Cycles == 0 {
		// The daemon is the front end: the seeded mix fills the window.
		plan = planJobs(b.seed, b.spec.Weights, len(b.pool))
		jobs, busy = b.serve(plan, clients, time.Now().Add(time.Duration(b.secs)*time.Second))
		if len(jobs) == len(plan) {
			fmt.Fprintf(os.Stderr, "perfbench: warning: the job plan ran out after %v\n", busy)
		}
		plan = plan[:len(jobs)]
	} else {
		// The in-process path is the front end. Cycle 0 is the warm-up, a
		// cold job and an analysis that grow both processes' heaps before
		// anything is timed. Each later cycle's in-process analysis
		// follows its daemon jobs, so that both paths see the machine
		// over the same stretch of time, and the cycles spread over the
		// whole window.
		clients = 1
		var deadline time.Time
		var last time.Duration // wall time of the last timed cycle
		c := 0
		for ; c < len(b.pool); c++ {
			if c == 1 {
				deadline = time.Now().Add(time.Duration(b.secs) * time.Second)
			} else if c > b.spec.Cycles && time.Now().Add(last).After(deadline) {
				break // a cycle as long as the last would end after the window
			}
			cycleStart := time.Now()
			cycle := planCycle(c, b.spec.Repeats)
			if c == 0 {
				cycle = cycle[:1]
			}
			r, d := b.serve(cycle, clients, time.Now().Add(time.Hour))
			plan, jobs = append(plan, cycle...), append(jobs, r...)
			if c == 0 {
				warm = len(r)
			} else {
				busy += d
				rates = append(rates, float64(len(r))/d.Seconds())
			}
			if err := ip.step(c, c > 0); err != nil {
				return err
			}
			last = time.Since(cycleStart)
		}
		if c == len(b.pool) && time.Now().Before(deadline) {
			fmt.Fprintf(os.Stderr, "perfbench: warning: the pool of %d traces ran out before the window ended\n", len(b.pool))
		}
	}
	after, err := b.d.scrape()
	if err != nil {
		return err
	}
	d := b.d
	b.d = nil
	peak, err := d.stop()
	if err != nil {
		return err
	}
	b.daemonMetrics(plan, jobs, warm, busy, rates, clients, before, after)

	if b.spec.Cycles == 0 {
		b.set("peak_rss_mb", peak, "MB", "perfplayd process")
		steps := 0
		for _, j := range plan {
			if j.Class == cold && steps <= analyzeSamples {
				// The first analysis is an untimed warm-up.
				if err := ip.step(j.Trace, steps > 0); err != nil {
					return err
				}
				steps++
			}
		}
	}
	if b.traced {
		// The first trace once more, untimed, so that its work counts
		// and report must repeat within the run.
		if err := ip.step(0, false); err != nil {
			return err
		}
	}
	ip.finish()
	b.checkReports(plan, jobs, ip.refs)
	return nil
}

// setup records the trace pool and boots the daemon, setupReps times;
// setup_s is the median. The pool of the last set-up is kept (every
// set-up records the same traces), and so is its daemon.
func (b *bench) setup() error {
	n := b.spec.PoolSize(b.secs)
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		ddir := filepath.Join(b.dir, "daemon-"+strconv.Itoa(rep))
		if err := os.Mkdir(ddir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		raw, err := recordPool(n, b.seed, b.spec.Record)
		if err != nil {
			return err
		}
		d, err := startDaemon(b.bin, ddir)
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		if rep < setupReps-1 {
			if _, err := d.stop(); err != nil {
				return err
			}
			if err := os.RemoveAll(ddir); err != nil {
				return err
			}
			continue
		}
		b.d = d
		b.pool = make([]*poolTrace, n)
		for i, data := range raw {
			b.pool[i] = &poolTrace{Bytes: data, Digest: corpus.Digest(data)}
		}
	}
	b.set("setup_s", median(times), "s",
		fmt.Sprintf("median of %d set-ups, each recording %d traces and booting perfplayd", setupReps, n))
	return nil
}

// golden runs the committed golden request in-process and compares its
// report with the committed golden file.
func (b *bench) golden() {
	b.attempted++
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		b.fail("golden report: %v", err)
		return
	}
	res, err := pipeline.Run(pipeline.Request{App: "mysql", Threads: 4, Scale: 0.2, Seed: 7, TopK: 5,
		DetectRaces: true, Workers: pipelineWorkers})
	if err != nil {
		b.fail("golden request: %v", err)
	} else if res.Report != string(want) {
		b.fail("golden request: report differs from %s", goldenPath)
	}
}

// serve runs a plan against the daemon with the closed loop and returns
// the completed jobs and how long the loop ran.
func (b *bench) serve(plan []plannedJob, clients int, deadline time.Time) ([]jobResult, time.Duration) {
	results := make([]jobResult, len(plan))
	start := time.Now()
	ran := closedLoop(clients, deadline, plan, func(i int) {
		results[i] = b.d.runJob(plan[i], b.pool[plan[i].Trace])
	})
	return results[:ran], time.Since(start)
}

// daemonMetrics turns the completed jobs and the /metrics scrapes taken
// around them into the daemon's end-to-end and per-layer metrics, and
// checks the traffic. The first warm jobs are checked but not timed.
// busy is how long the timed jobs took; rates, when given, are per-cycle
// throughputs, whose median is then the run's throughput.
func (b *bench) daemonMetrics(plan []plannedJob, jobs []jobResult, warm int, busy time.Duration, rates []float64,
	clients int, before, after map[string]float64) {
	b.attempted += len(jobs)
	var lat [numClasses][]float64
	var submit, push, queueWait []float64
	stages := map[string][]float64{}
	for i, r := range jobs {
		c := plan[i].Class
		if r.Err != nil {
			b.fail("%s job %d: %v", c, i, r.Err)
			continue
		}
		if wantHit := c == repeat; r.Job.CacheHit != wantHit {
			b.fail("%s job %d: cache_hit=%t", c, i, r.Job.CacheHit)
		}
		if i < warm {
			continue
		}
		lat[c] = append(lat[c], r.Latency.Seconds())
		submit = append(submit, r.Submit.Seconds())
		if c == repeat {
			continue // a result-cache hit reports the original run's stages
		}
		var inStages time.Duration
		for _, st := range r.Job.Timings {
			inStages += time.Duration(st.WallNS)
			if c == cold {
				stages[st.Stage] = append(stages[st.Stage], float64(st.WallNS)/1e9)
			}
		}
		queueWait = append(queueWait, (r.Job.Finished.Sub(r.Job.Submitted) - inStages).Seconds())
		if c == cold {
			push = append(push, r.Push.Seconds())
		}
	}
	for c := class(0); c < numClasses; c++ {
		if len(lat[c]) == 0 {
			b.fail("no completed %s jobs", c)
		}
	}
	ct := tail(lat[cold])
	tailNote := fmt.Sprintf("p%.1f of n=%d cold jobs", ct.Pct, ct.N)
	if !ct.OK {
		tailNote = fmt.Sprintf("upper quartile (p%.1f) of n=%d cold jobs (fewer than %d samples)", ct.Pct, ct.N, tailBeyond+1)
	}
	b.set("cold_p50_s", median(lat[cold]), "s", fmt.Sprintf("n=%d", len(lat[cold])))
	b.set("cold_tail_s", ct.Value, "s", tailNote)
	b.set("reflag_p50_s", median(lat[reflag]), "s", fmt.Sprintf("n=%d", len(lat[reflag])))
	// A repeat costs two journal fsyncs and little else, so its latency
	// follows the disk's fsync latency; too unsteady for an end-to-end
	// bound, it is reported with the per-layer metrics.
	b.setLayer("repeat_p50_s", median(lat[repeat]), "s", fmt.Sprintf("n=%d", len(lat[repeat])))
	timed := len(jobs) - warm
	if rates == nil {
		b.set("jobs_per_s", float64(timed)/busy.Seconds(), "1/s",
			fmt.Sprintf("%d jobs in %.2fs of closed loop, %d clients", timed, busy.Seconds(), clients))
	} else {
		b.set("jobs_per_s", median(rates), "1/s",
			fmt.Sprintf("median over %d cycles of %d jobs in %.2fs, %d client", len(rates), timed, busy.Seconds(), clients))
	}

	delta := func(name string, labels ...string) float64 {
		return sumSeries(after, name, labels...) - sumSeries(before, name, labels...)
	}
	const cacheReqs = "perfplay_pipeline_cache_requests_total"
	cache := func(cache, outcome string) float64 {
		return delta(cacheReqs, `cache="`+cache+`"`, `outcome="`+outcome+`"`)
	}
	var n [numClasses]float64
	for i, r := range jobs {
		if r.Err == nil {
			n[plan[i].Class]++
		}
	}
	// The traffic self-check: the mix is assumed traffic, so what is
	// checked is that the daemon saw the mix the run claims to send.
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"result-cache hits (one per repeat)", cache("result", "hit"), n[repeat]},
		{"result-cache misses (one per cold or reflag)", cache("result", "miss"), n[cold] + n[reflag]},
		{"table-cache hits (one per reflag)", cache("table", "hit"), n[reflag]},
		{"table-cache misses (one per cold)", cache("table", "miss"), n[cold]},
		{"503 responses", delta("perfplay_http_requests_total", `code="503"`), 0},
		{"admission redirects", delta("perfplay_admission_redirects_total"), 0},
		{"failed jobs", delta("perfplay_jobs_completed_total", `status="failed"`), 0},
	} {
		b.attempted++
		if c.got != c.want {
			b.fail("traffic self-check: %s = %g, want %g", c.what, c.got, c.want)
		}
	}

	ratio := func(c string) float64 {
		hits, misses := cache(c, "hit"), cache(c, "miss")
		return hits / max(hits+misses, 1)
	}
	b.setLayer("perfplayd.submit_s", median(submit), "s", fmt.Sprintf("median POST /analyze round trip, n=%d", len(submit)))
	b.setLayer("corpus.push_s", median(push), "s", fmt.Sprintf("median POST /traces round trip, n=%d", len(push)))
	b.setLayer("scheduler.queue_wait_s", median(queueWait), "s",
		fmt.Sprintf("median of finished - submitted - stage times over computed jobs, n=%d", len(queueWait)))
	b.setLayer("pipeline.result_hit_ratio", ratio("result"), "ratio", "/metrics delta")
	b.setLayer("pipeline.table_hit_ratio", ratio("table"), "ratio", "/metrics delta")
	for _, st := range []string{"record", "replay", "classify", "quantify", "report"} {
		b.setLayer("perfplayd.stage."+st+"_s", median(stages[st]), "s",
			fmt.Sprintf("median over cold jobs, n=%d", len(stages[st])))
	}
	b.setLayer("journal.bytes_per_job", delta("perfplay_journal_appended_bytes_total")/float64(max(len(jobs), 1)), "B",
		"/metrics delta over jobs")
}

// checkReports compares every daemon report with the in-process
// pipeline.Run report for the same trace and flags. References the
// in-process analyses did not produce are computed here, untimed, two
// at a time.
func (b *bench) checkReports(plan []plannedJob, jobs []jobResult, refs map[refKey]string) {
	var missing []refKey
	for i, r := range jobs {
		key := refKey{plan[i].Trace, plan[i].Class == reflag}
		if _, ok := refs[key]; !ok && r.Err == nil {
			refs[key] = ""
			missing = append(missing, key)
		}
	}
	reports := make([]string, len(missing))
	errs := make([]error, len(missing))
	inParallel(len(missing), func(k int) {
		reports[k], _, _, errs[k] = analyzeBytes(b.pool[missing[k].trace], missing[k].schemes, 1)
	})
	b.attempted += len(missing)
	for k, key := range missing {
		if errs[k] != nil {
			b.fail("in-process reference for trace %d: %v", key.trace, errs[k])
		}
		refs[key] = reports[k]
	}
	for i, r := range jobs {
		key := refKey{plan[i].Trace, plan[i].Class == reflag}
		if r.Err == nil && refs[key] != "" && r.Job.Report != refs[key] {
			b.fail("%s job %d: daemon report differs from in-process pipeline.Run", plan[i].Class, i)
		}
	}
}
