package pipeline

import (
	"fmt"
	"testing"

	"perfplay/internal/core"
	"perfplay/internal/sim"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// TestCoreAndPipelineParity: core.AnalyzeTrace (the experiments,
// examples and multi-trace front end) and pipeline.Run (the CLI and
// daemon front end) report the same bytes for the same trace and
// options — including a binding reversed-replay budget, where per-lock
// and per-trace budgeting would classify differently.
func TestCoreAndPipelineParity(t *testing.T) {
	for _, app := range []string{"mysql", "openldap", "pbzip2"} {
		rec := sim.Run(workload.MustGet(app).Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7}),
			sim.Config{Seed: 7})
		for _, budget := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/budget=%d", app, budget), func(t *testing.T) {
				opts := ulcp.Options{MaxReversedReplays: budget}
				a, err := core.AnalyzeTrace(rec.Trace, core.Config{Identify: opts})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Request{Trace: rec.Trace, TopK: 5, Workers: 2, Identify: opts})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := res.Report, a.Summary(5); got != want {
					t.Fatalf("pipeline report differs from core:\npipeline:\n%s\ncore:\n%s", got, want)
				}
			})
		}
	}
}
