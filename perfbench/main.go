// Command perfbench is perfplay's end-to-end benchmark: trace bytes in,
// ranked report out, through the perfplayd daemon and through the
// in-process pipeline.Run path, with a traced run that times each layer
// from outside. See README.md for the workloads, the metrics and the
// committed per-layer ledger.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench --workload serve-mysql|parsec-large|readmostly
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print
// every measured metric by name, with its unit and sample count. The
// exit code is 1 when any output was wrong and 2 when the benchmark
// could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	Name string
	// PoolSize is how many traces a set-up records for a run of the
	// given length: every cold daemon job needs a trace of its own.
	PoolSize func(seconds int) int
	Record   func(seed int64) ([]byte, error)
	// Cycles, when 0, makes the daemon the workload's front end: the
	// daemon serves a seeded job mix (Weights, Clients) for the whole
	// window, its first analyzeSamples cold traces are then analyzed
	// in-process, and the daemon's peak memory is reported. When
	// Cycles > 0 the in-process path is the front end: after an untimed
	// warm-up (one cold job and one in-process analysis), cycles fill the
	// window — each a fixed daemon cycle on one client (a cold job on a
	// fresh pool trace, a reflag and Repeats repeats of it) followed by
	// one in-process analysis of the same trace — and at least Cycles of
	// them are timed.
	Cycles, Repeats int
	// Weights are the relative odds of cold, reflag and repeat jobs in
	// the seeded mix.
	Weights [numClasses]int
	// Clients is the seeded mix's closed-loop client count, at most one
	// per CPU of the two-CPU machines the benchmark is sized for. The
	// fixed plan always runs on one client.
	Clients int
}

var workloads = []workloadSpec{
	{
		Name: "serve-mysql",
		// Two clients complete 16 to 25 cold jobs per second on two
		// CPUs; the pool leaves room for 35, so that a faster machine
		// does not run out of traces before the window ends.
		PoolSize: func(s int) int { return 35 * s },
		Record: func(seed int64) ([]byte, error) {
			return recordApp("mysql", 4, 0.25, seed)
		},
		Weights: [numClasses]int{2, 1, 1},
		Clients: 2,
	},
	{
		Name: "parsec-large",
		// A cycle takes about 3s on two CPUs; the pool leaves room for
		// cycles of 2.5s, plus the warm-up.
		PoolSize: func(s int) int { return 2 + s*2/5 },
		Record: func(seed int64) ([]byte, error) {
			return recordApp("fluidanimate", 4, 0.25, seed)
		},
		Cycles:  5,
		Repeats: 12,
	},
	{
		Name: "readmostly",
		// A cycle takes about 5s on two CPUs; recording is cheap, so the
		// pool leaves room for cycles of 1s, plus the warm-up.
		PoolSize: func(s int) int { return 2 + s },
		Record:   recordReadMostly,
		Cycles:   4,
		Repeats:  12,
	},
}

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// pipelineWorkers is the in-process pool width, one worker per CPU.
	pipelineWorkers = 2
	// countTraces is how many pool traces (the first ones) the exact
	// work counts are summed over.
	countTraces = 2
	// analyzeSamples caps the timed in-process analyses of a
	// daemon-fronted run; the daemon's other traces are checked untimed.
	analyzeSamples = 60
	// maxDecompositions caps the timed traced analyses of a run.
	maxDecompositions = 40
	// goldenPath is the committed report of the golden request.
	goldenPath = "internal/pipeline/testdata/mysql.golden"
)

// poolTrace is one recorded trace as the daemon receives it.
type poolTrace struct {
	Bytes  []byte
	Digest string
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name   = flag.String("workload", "", "workload: serve-mysql, parsec-large or readmostly")
		seed   = flag.Int64("seed", 1, "workload seed")
		secs   = flag.Int("seconds", 20, "measured window in seconds")
		traced = flag.Int("trace", 0, "1 runs the traced per-layer decomposition and reports per-layer metrics")
	)
	flag.Parse()
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-mysql|parsec-large|readmostly, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// run.sh builds perfplayd next to this binary.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	bin := filepath.Join(filepath.Dir(exe), "perfplayd")
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	b := &bench{spec: spec, seed: *seed, secs: *secs, traced: *traced == 1, dir: dir, bin: bin,
		metrics: map[string]metric{}}
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return b.print()
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note says what the value was computed from (sample counts,
	// percentiles); printed on the human-readable line only.
	note string
	// perLayer is set for the traced run's metrics.
	perLayer bool
}

// print writes every measured metric, one per line, then the result
// line: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one. It returns the exit code.
func (b *bench) print() int {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		mi, mj := b.metrics[names[i]], b.metrics[names[j]]
		if mi.perLayer != mj.perLayer {
			return !mi.perLayer
		}
		return names[i] < names[j]
	})
	steal, ticks := cpuTicks()
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t (hypervisor took %.1f%% of CPU time during the run)\n",
		b.spec.Name, b.seed, b.secs, b.traced, 100*(steal-b.steal0)/max(ticks-b.ticks0, 1))
	out := map[string]metric{}
	for _, n := range names {
		m := b.metrics[n]
		kind := "end-to-end"
		if m.perLayer {
			kind = "per-layer"
		}
		fmt.Printf("  %-10s %-28s %16.6f %-5s %s\n", kind, n, m.Value, m.Unit, m.note)
		if m.perLayer == b.traced {
			out[n] = m
		}
	}
	// failed_ratio is printed on every run; the result line carries it
	// as a per-layer metric, since an end-to-end metric must never be 0.
	ratio := float64(len(b.failures)) / float64(max(b.attempted, 1))
	fmt.Printf("  %-10s %-28s %16.6f %-5s %d of %d\n", "per-layer", "failed_ratio", ratio, "ratio",
		len(b.failures), b.attempted)
	if b.traced {
		out["failed_ratio"] = metric{Value: ratio, Unit: "ratio"}
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.failures) == 0, b.attempted, len(b.failures), out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if len(b.failures) > 0 {
		return 1
	}
	return 0
}
