package ulcp

import (
	"perfplay/internal/trace"
)

// VerdictTable is the per-trace reversed-replay memo: one benign/TLCP
// verdict per conflicting region-pair class, shared by every lock
// group of a trace, so a region pair recurring under many locks pays
// the O(events) prefix walk once per trace instead of once per lock
// (39 → 24 replays on openldap).
//
// A table is a deterministic function of (trace, critical sections,
// options): it is the memo produced by Identify's own sorted
// lock/thread walk under its per-trace replay budget. Shards replaying
// the same walk against the table observe exactly Identify's verdicts —
// including the RULE-1 early stops those verdicts imply — so
// IdentifyShardWithVerdicts over sorted lock groups performs zero
// replays and merges to a report pair-for-pair identical to Identify's,
// regardless of which goroutine ran each shard.
type VerdictTable struct {
	// Verdicts maps regionPairKey → benign. Every class Identify's walk
	// replayed (or budget-defaulted) has an entry.
	Verdicts map[string]bool `json:"verdicts"`
	// Replays counts the reversed replays spent building the table.
	Replays int `json:"replays"`
}

// Lookup returns the memoized verdict for a conflicting pair.
func (vt *VerdictTable) Lookup(c1, c2 *trace.CritSec) (benign, ok bool) {
	if vt == nil {
		return false, false
	}
	benign, ok = vt.Verdicts[regionPairKey(c1, c2)]
	return benign, ok
}

// Classes reports how many region-pair classes the table memoizes.
func (vt *VerdictTable) Classes() int {
	if vt == nil {
		return 0
	}
	return len(vt.Verdicts)
}

// BuildVerdictTable runs one full identification pass over the trace
// and returns both its verdict memo and the complete report the pass
// produced along the way. MaxReversedReplays budgets replays per trace.
//
// The table is the unit of cross-job reuse: it depends only on (trace
// content, Options), so a daemon analyzing the same stored trace under
// different reporting flags can reuse a cached table and skip every
// replay (see the pipeline's digest-keyed table cache).
func BuildVerdictTable(tr *trace.Trace, css []*trace.CritSec, opts Options) (*VerdictTable, *Report) {
	id := newIdentifier(tr, css, opts, nil)
	id.run()
	return &VerdictTable{Verdicts: id.benignMemo, Replays: id.rep.ReversedReplays}, id.rep
}
