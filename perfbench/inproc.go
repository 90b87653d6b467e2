package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"perfplay/internal/pipeline"
	"perfplay/internal/trace"
)

// refKey names one in-process reference report.
type refKey struct {
	trace   int
	schemes bool
}

// inProcess runs the in-process analyses of a run and collects their
// samples. In a traced run each untraced analysis is followed by a
// traced decomposition of the same trace.
type inProcess struct {
	b *bench
	// refs are the reports by trace and flags, the references the
	// daemon's reports are checked against.
	refs map[refKey]string

	analyze, peaks    []float64
	layer             map[string][]float64
	overhead, tracing []float64
	counts            layerCounts
	countsOf          map[int]layerCounts
	decompositions    int
}

// newInProcess starts the in-process analyses of a run. It first
// returns the memory set-up left behind to the OS, so that the peak
// memory of the analyses is theirs.
func newInProcess(b *bench) *inProcess {
	debug.FreeOSMemory()
	return &inProcess{b: b, refs: map[refKey]string{}, layer: map[string][]float64{}, countsOf: map[int]layerCounts{}}
}

// step analyzes pool trace i: untraced bytes → report, then, in a
// traced run, the traced decomposition. Each starts from a collected
// heap. An untimed step is a warm-up: its reports and work counts are
// checked, but it gives no time or memory samples.
func (ip *inProcess) step(i int, timed bool) error {
	b := ip.b
	b.attempted++
	if err := resetPeakRSS(); err != nil {
		return err
	}
	report, total, plWall, err := analyzeBytes(b.pool[i], false, pipelineWorkers)
	if err != nil {
		b.fail("in-process analysis of trace %d: %v", i, err)
		return nil
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	if timed {
		ip.analyze, ip.peaks = append(ip.analyze, total.Seconds()), append(ip.peaks, peak)
	}
	if prev, ok := ip.refs[refKey{i, false}]; ok && prev != report {
		b.fail("in-process analysis of trace %d: report differs from its earlier analysis", i)
	}
	ip.refs[refKey{i, false}] = report
	if !b.traced || timed && ip.decompositions == maxDecompositions {
		return nil
	}

	if timed {
		ip.decompositions++
	}
	b.attempted++
	if err := resetPeakRSS(); err != nil {
		return err
	}
	dc, err := decompose(b.pool[i].Bytes)
	if err != nil {
		b.fail("traced analysis of trace %d: %v", i, err)
		return nil
	}
	if dc.Summary != report {
		b.fail("traced analysis of trace %d: summary differs from pipeline.Run's report", i)
	}
	if prev, ok := ip.countsOf[i]; !ok {
		ip.countsOf[i] = dc.Counts
		if i < countTraces {
			ip.counts.add(dc.Counts)
		}
	} else if prev != dc.Counts {
		b.fail("traced analysis of trace %d: work counts differ from its earlier analysis", i)
	}
	if !timed {
		return nil
	}
	var inPipeline time.Duration
	for _, s := range dc.Spans {
		ip.layer[s.Name] = append(ip.layer[s.Name], s.Dur.Seconds())
		if s.AllocMB > 0 {
			name := strings.TrimSuffix(s.Name, "_s") + "_alloc_mb"
			ip.layer[name] = append(ip.layer[name], s.AllocMB)
		}
		switch s.Name {
		case "trace.decode_s", "ulcp.shards_s", "replay.schemes_s":
			// outside the untraced pipeline.Run of a default-flag job
		default:
			inPipeline += s.Dur
		}
	}
	ip.overhead = append(ip.overhead, (plWall - inPipeline).Seconds())
	ip.tracing = append(ip.tracing, (dc.Total - total).Seconds())
	return nil
}

// finish records the in-process metrics and, in a traced run, the
// per-layer ledger.
func (ip *inProcess) finish() {
	b := ip.b
	if len(ip.analyze) == 0 {
		b.fail("no completed in-process analyses")
	}
	b.set("analyze_p50_s", median(ip.analyze), "s", fmt.Sprintf("in-process bytes → report, n=%d", len(ip.analyze)))
	if b.spec.Cycles > 0 {
		b.set("peak_rss_mb", median(ip.peaks), "MB",
			fmt.Sprintf("in-process runner, median peak over n=%d analyses", len(ip.peaks)))
	}
	if !b.traced {
		return
	}
	n := len(ip.overhead)
	if n == 0 {
		b.fail("no completed traced analyses")
	}
	if len(ip.countsOf) < countTraces {
		b.fail("traced analyses did not cover the first %d traces", countTraces)
	}
	for _, name := range []string{"trace.decode_s", "trace.validate_s", "trace.extract_cs_s", "ulcp.identify_s",
		"ulcp.shards_s", "transform.apply_s", "replay.orig_s", "replay.free_s", "replay.schemes_s",
		"perfdbg.evaluate_s", "core.summary_s"} {
		b.setLayer(name, median(ip.layer[name]), "s", fmt.Sprintf("median self time, n=%d", len(ip.layer[name])))
	}
	for _, name := range []string{"trace.decode_alloc_mb", "ulcp.identify_alloc_mb", "transform.apply_alloc_mb",
		"perfdbg.evaluate_alloc_mb"} {
		b.setLayer(name, median(ip.layer[name]), "MB", fmt.Sprintf("median heap allocated, n=%d", len(ip.layer[name])))
	}
	b.setLayer("pipeline.overhead_s", median(ip.overhead), "s",
		fmt.Sprintf("untraced pipeline.Run minus layer self times, median, n=%d", n))
	b.setLayer("bench.tracing_overhead_s", median(ip.tracing), "s",
		fmt.Sprintf("traced minus untraced bytes → report, median, n=%d", n))
	c := ip.counts
	note := fmt.Sprintf("exact, summed over the first %d traces", countTraces)
	for _, m := range []struct {
		name string
		v    int
	}{
		{"trace.events", c.Events}, {"trace.critical_sections", c.CritSecs}, {"ulcp.pairs", c.Pairs},
		{"ulcp.ulcps", c.ULCPs}, {"ulcp.reversed_replays", c.ReversedReplays},
		{"ulcp.verdict_classes", c.VerdictClasses}, {"ulcp.truncated_scans", c.TruncatedScans},
		{"transform.events", c.TransformEvents}, {"perfdbg.groups", c.Groups},
	} {
		b.setLayer(m.name, float64(m.v), "count", note)
	}
	b.setLayer("ulcp.replay_benign_ratio", float64(c.BenignVerdicts)/float64(max(c.ReversedReplays, 1)), "ratio",
		fmt.Sprintf("%d benign verdicts / %d reversed replays", c.BenignVerdicts, c.ReversedReplays))
}

// analyzeBytes is the in-process path perfplay -trace-digest takes:
// decode the trace bytes, run pipeline.Run, take the rendered report.
// It returns the report, the bytes → report wall time and the
// pipeline.Run part of it.
func analyzeBytes(p *poolTrace, schemes bool, workers int) (string, time.Duration, time.Duration, error) {
	start := time.Now()
	tr, err := trace.ReadAny(bytes.NewReader(p.Bytes))
	if err != nil {
		return "", 0, 0, err
	}
	plStart := time.Now()
	res, err := pipeline.Run(pipeline.Request{Trace: tr, TraceDigest: p.Digest, TraceBytes: int64(len(p.Bytes)),
		Workers: workers, Schemes: schemes})
	if err != nil {
		return "", 0, 0, err
	}
	end := time.Now()
	return res.Report, end.Sub(start), end.Sub(plStart), nil
}

// resetPeakRSS collects garbage and resets the kernel's peak-RSS mark,
// so that each in-process analysis starts from the same heap state and
// peakRSSMB then reads the process's peak during that analysis. The
// collected heap stays mapped: returning it to the OS before every
// analysis would make each analysis fault its heap back in, which added
// a fifth to a mysql analysis's time and most of its run-to-run spread.
func resetPeakRSS() error {
	runtime.GC()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads this process's peak resident memory since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	st, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(st), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks returns the machine's cumulative CPU-steal ticks and total
// CPU ticks from /proc/stat, or zeros where that is unavailable. Steal
// is time a virtual machine's CPUs waited for the hypervisor; it slows
// every wall-clock metric and explains runs that read slow throughout.
func cpuTicks() (steal, total float64) {
	st, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(st), "\n")
	// cpu user nice system idle iowait irq softirq steal guest...; the
	// guest fields are already counted in user and nice.
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64) // a malformed field counts as 0
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
