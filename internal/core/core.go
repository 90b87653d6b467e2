// Package core is the public face of PerfPlay: it wires the record →
// identify → transform → replay → debug pipeline of Fig. 5 into a single
// call and exposes the per-stage artifacts for tools, examples and the
// experiment harness.
package core

import (
	"fmt"

	"perfplay/internal/perfdbg"
	"perfplay/internal/race"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/verify"
	"perfplay/internal/vtime"
)

// Config tunes a PerfPlay analysis.
type Config struct {
	// Sim configures the recording run (seed, cost model).
	Sim sim.Config
	// Identify configures ULCP identification.
	Identify ulcp.Options
	// LocksetCost enables the lockset maintenance cost model in the
	// ULCP-free replay (Table 3); zero disables it.
	LocksetCost vtime.Duration
	// DLS applies the dynamic locking strategy in the ULCP-free replay.
	DLS bool
	// DetectRaces runs the happens-before detector over the transformed
	// replay (Theorem 1's fallback reporting).
	DetectRaces bool
	// MaxRaces caps reported races (0 = 32).
	MaxRaces int
	// VerifyTheorem1 runs the full Theorem 1 check (outcome comparison
	// plus race attribution) and stores the report on the analysis.
	VerifyTheorem1 bool
}

// Analysis bundles every artifact of one pipeline run.
type Analysis struct {
	// App names the analyzed workload.
	App string
	// Recorded is the recording run (trace plus native measurements).
	Recorded *sim.Result
	// CSs are the extracted critical sections.
	CSs []*trace.CritSec
	// Report is the ULCP identification outcome.
	Report *ulcp.Report
	// Transformed is the ULCP-free trace and its construction artifacts.
	Transformed *transform.Result
	// OrigReplay and FreeReplay are the two ELSC replays PerfPlay
	// compares (Sec. 4).
	OrigReplay, FreeReplay *replay.Result
	// Debug holds Eq. 1/Eq. 2 results and the fused recommendations.
	Debug *perfdbg.Debug
	// Races are happens-before conflicts surfaced in the transformed
	// replay, if race detection was requested.
	Races []race.Race
	// Theorem1 is the correctness verdict, if VerifyTheorem1 was set.
	Theorem1 *verify.Report
}

// Analyze records the program and runs the full PerfPlay pipeline on the
// resulting trace.
func Analyze(p *sim.Program, cfg Config) (*Analysis, error) {
	rec := sim.Run(p, cfg.Sim)
	a, err := AnalyzeTrace(rec.Trace, cfg)
	if err != nil {
		return nil, err
	}
	a.Recorded = rec
	return a, nil
}

// AnalyzeTrace runs the pipeline on an existing trace (e.g. one loaded
// from disk): identification, transformation, the two ELSC replays, and
// performance debugging.
func AnalyzeTrace(tr *trace.Trace, cfg Config) (*Analysis, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("core: input trace: %w", err)
	}
	a := &Analysis{App: tr.App}

	a.CSs = tr.ExtractCS()
	// Identify's per-trace reversed-replay budget is the repo's one
	// identification semantics: the pipeline's classify stage runs the
	// same pass (ulcp.BuildVerdictTable), so every front end — core,
	// CLI, daemon, experiments — reports the same counts for the same
	// recording and options (pinned by pipeline's parity test).
	a.Report = ulcp.Identify(tr, a.CSs, cfg.Identify)

	var err error
	a.Transformed, err = transform.Apply(tr, a.CSs, a.Report)
	if err != nil {
		return nil, err
	}

	// Replay the original trace under ELSC (performance fidelity,
	// Sec. 5.2) and the ULCP-free trace under the same discipline.
	a.OrigReplay, err = replay.Run(tr, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		return nil, fmt.Errorf("core: original replay: %w", err)
	}
	a.FreeReplay, err = replay.Run(a.Transformed.Trace, replay.Options{
		Sched:       replay.ELSCS,
		DLS:         cfg.DLS,
		LocksetCost: cfg.LocksetCost,
	})
	if err != nil {
		return nil, fmt.Errorf("core: ULCP-free replay: %w", err)
	}

	a.Debug = perfdbg.Evaluate(tr, a.CSs, a.Report, a.OrigReplay, a.FreeReplay, tr.NumThreads)

	if cfg.DetectRaces {
		limit := cfg.MaxRaces
		if limit == 0 {
			limit = 32
		}
		order := race.OrderByStart(a.FreeReplay.EventStart)
		a.Races = race.Detect(a.Transformed.Trace, order, limit)
	}
	if cfg.VerifyTheorem1 {
		a.Theorem1, err = verify.Check(tr, a.Transformed.Trace, cfg.MaxRaces)
		if err != nil {
			return nil, fmt.Errorf("core: theorem 1 check: %w", err)
		}
	}
	return a, nil
}

// Summary returns a compact multi-line report: overall impact plus the
// top-k recommended code regions, the list Fig. 5's final stage hands to
// the programmer.
func (a *Analysis) Summary(topK int) string {
	d := a.Debug
	s := fmt.Sprintf("PerfPlay analysis of %s (%d threads)\n", a.App, a.Threads())
	s += fmt.Sprintf(" dynamic locks: %d  critical sections: %d\n",
		dynamicLocks(a), len(a.CSs))
	s += fmt.Sprintf(" ULCPs: %d (null-lock %d, read-read %d, disjoint-write %d, benign %d), TLCPs: %d\n",
		a.Report.NumULCPs(),
		a.Report.Counts[ulcp.NullLock], a.Report.Counts[ulcp.ReadRead],
		a.Report.Counts[ulcp.DisjointWrite], a.Report.Counts[ulcp.Benign],
		a.Report.Counts[ulcp.TLCP])
	s += fmt.Sprintf(" replayed: original %v, ULCP-free %v  => degradation %.2f%%\n",
		d.Tut, d.Tuft, d.NormalizedDegradation()*100)
	s += fmt.Sprintf(" resource waste: %v (%.2f%%/thread)\n",
		d.Trw, d.CPUWastePerThread(a.Threads())*100)
	if len(a.Races) > 0 {
		s += fmt.Sprintf(" data races reported in transformed trace: %d\n", len(a.Races))
	}
	if len(d.Groups) > 0 {
		s += fmt.Sprintf(" grouped ULCP code regions: %d; top recommendations:\n", len(d.Groups))
		for i, g := range d.Recommend(topK) {
			s += fmt.Sprintf("  #%d %s\n", i+1, g)
		}
	}
	return s
}

// Threads is the analyzed execution's thread count: the recording's
// when this analysis recorded, else the replay's view for loaded
// traces. The single source every summary — local, daemon, or wire —
// derives the number from.
func (a *Analysis) Threads() int {
	if a.Recorded != nil {
		return a.Recorded.Trace.NumThreads
	}
	if a.OrigReplay != nil {
		return len(a.OrigReplay.PerThreadCPU)
	}
	return 0
}

func dynamicLocks(a *Analysis) int {
	if a.Recorded != nil {
		return a.Recorded.Trace.DynamicLocks()
	}
	return len(a.CSs)
}
