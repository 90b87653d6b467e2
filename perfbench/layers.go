package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"perfplay/internal/core"
	"perfplay/internal/perfdbg"
	"perfplay/internal/replay"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
)

// span is one timed call into a layer's public API. The decomposition
// calls the layers one after another, never nested, so each span's
// duration is its self time.
type span struct {
	Name    string
	Dur     time.Duration
	AllocMB float64 // heap bytes allocated during the call, in MiB
}

// tracer records spans and, for the layers whose allocations the
// ledger reports, the heap bytes they allocated.
type tracer struct {
	spans []span
}

func (t *tracer) do(name string, measureAlloc bool, f func() error) error {
	var before runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	err := f()
	s := span{Name: name, Dur: time.Since(start)}
	if measureAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	t.spans = append(t.spans, s)
	return err
}

// layerCounts are exact work counts read from the layers' result
// structs. They depend only on the trace, so they repeat exactly for a
// seed.
type layerCounts struct {
	Events, CritSecs, Pairs, ULCPs, ReversedReplays int
	VerdictClasses, BenignVerdicts, TruncatedScans  int
	TransformEvents, Groups                         int
}

func (c *layerCounts) add(o layerCounts) {
	c.Events += o.Events
	c.CritSecs += o.CritSecs
	c.Pairs += o.Pairs
	c.ULCPs += o.ULCPs
	c.ReversedReplays += o.ReversedReplays
	c.VerdictClasses += o.VerdictClasses
	c.BenignVerdicts += o.BenignVerdicts
	c.TruncatedScans += o.TruncatedScans
	c.TransformEvents += o.TransformEvents
	c.Groups += o.Groups
}

// decomposition is one traced analysis of a trace.
type decomposition struct {
	Spans   []span
	Counts  layerCounts
	Summary string
	// Total is the wall time of the cold path (decode through summary),
	// the traced counterpart of one untraced bytes → report analysis.
	Total time.Duration
}

// decompose analyzes trace bytes by calling each layer's public
// function in the order pipeline.Run's stages call them with default
// flags — decode, validate and warm, original ELSC replay, critical
// section extraction, verdict-table identification, transformation,
// ULCP-free replay, Eq. 1/Eq. 2 evaluation, summary — and times each
// call. It then times the two extra steps a reflag job takes on the
// same trace: identification shards against the cached verdict table,
// and the ORIG/SYNC/MEM scheme replays.
func decompose(data []byte) (*decomposition, error) {
	t := &tracer{}
	a := &core.Analysis{}
	var tr *trace.Trace
	var table *ulcp.VerdictTable
	start := time.Now()
	steps := []struct {
		name  string
		alloc bool
		f     func() error
	}{
		{"trace.decode_s", true, func() (err error) {
			tr, err = trace.ReadAny(bytes.NewReader(data))
			return err
		}},
		{"trace.validate_s", false, func() error {
			if err := tr.Validate(); err != nil {
				return err
			}
			if len(tr.Events) == 0 || tr.NumThreads == 0 {
				return fmt.Errorf("empty trace")
			}
			tr.Warm()
			a.App = tr.App
			return nil
		}},
		{"replay.orig_s", false, func() (err error) {
			a.OrigReplay, err = replay.Run(tr, replay.Options{Sched: replay.ELSCS})
			return err
		}},
		{"trace.extract_cs_s", false, func() error {
			a.CSs = tr.ExtractCS()
			return nil
		}},
		{"ulcp.identify_s", true, func() error {
			table, a.Report = ulcp.BuildVerdictTable(tr, a.CSs, ulcp.Options{})
			return nil
		}},
		{"transform.apply_s", true, func() (err error) {
			if a.Transformed, err = transform.Apply(tr, a.CSs, a.Report); err != nil {
				return err
			}
			a.Transformed.Trace.Warm()
			return nil
		}},
		{"replay.free_s", false, func() (err error) {
			a.FreeReplay, err = replay.Run(a.Transformed.Trace, replay.Options{Sched: replay.ELSCS})
			return err
		}},
		{"perfdbg.evaluate_s", true, func() error {
			a.Debug = perfdbg.Evaluate(tr, a.CSs, a.Report, a.OrigReplay, a.FreeReplay, tr.NumThreads)
			return nil
		}},
	}
	for _, s := range steps {
		if err := t.do(s.name, s.alloc, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	var summary string
	_ = t.do("core.summary_s", false, func() error {
		summary = a.Summary(5)
		return nil
	})
	total := time.Since(start)

	// The reflag path: shards re-derive the report from the cached
	// table without a reversed replay, and must reproduce it.
	var merged *ulcp.Report
	_ = t.do("ulcp.shards_s", false, func() error {
		groups := ulcp.SortedLockGroups(a.CSs)
		shards := make([]*ulcp.Report, len(groups))
		for i, g := range groups {
			shards[i] = ulcp.IdentifyShardWithVerdicts(tr, g, ulcp.Options{}, table)
		}
		merged = ulcp.MergeReports(shards...)
		merged.ReversedReplays += table.Replays
		return nil
	})
	if err := sameReport(merged, a.Report); err != nil {
		return nil, fmt.Errorf("verdict-table shards disagree with identification: %w", err)
	}
	if err := t.do("replay.schemes_s", false, func() error {
		for _, s := range []replay.Scheduler{replay.OrigS, replay.SyncS, replay.MemS} {
			if _, err := replay.Run(tr, replay.Options{Sched: s}); err != nil {
				return fmt.Errorf("%v replay: %w", s, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	benign := 0
	for _, b := range table.Verdicts {
		if b {
			benign++
		}
	}
	return &decomposition{
		Spans:   t.spans,
		Summary: summary,
		Total:   total,
		Counts: layerCounts{
			Events:          len(tr.Events),
			CritSecs:        len(a.CSs),
			Pairs:           len(a.Report.Pairs),
			ULCPs:           a.Report.NumULCPs(),
			ReversedReplays: a.Report.ReversedReplays,
			VerdictClasses:  table.Classes(),
			BenignVerdicts:  benign,
			TruncatedScans:  a.Report.Truncated,
			TransformEvents: len(a.Transformed.Trace.Events),
			Groups:          len(a.Debug.Groups),
		},
	}, nil
}

// sameReport compares two identification reports pair for pair.
func sameReport(got, want *ulcp.Report) error {
	if len(got.Pairs) != len(want.Pairs) {
		return fmt.Errorf("%d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		g, w := got.Pairs[i], want.Pairs[i]
		if g.C1.ID != w.C1.ID || g.C2.ID != w.C2.ID || g.Cat != w.Cat {
			return fmt.Errorf("pair %d differs", i)
		}
	}
	if got.ReversedReplays != want.ReversedReplays || got.Truncated != want.Truncated ||
		len(got.CausalEdges) != len(want.CausalEdges) {
		return fmt.Errorf("replays/truncated/edges %d/%d/%d, want %d/%d/%d",
			got.ReversedReplays, got.Truncated, len(got.CausalEdges),
			want.ReversedReplays, want.Truncated, len(want.CausalEdges))
	}
	return nil
}
