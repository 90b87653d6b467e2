package ulcp

import (
	"encoding/json"
	"reflect"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// openldapFixture records the contended openldap workload — the ROADMAP
// fixture where the per-lock memo re-pays replays for region pairs that
// recur under many locks.
func openldapFixture(t *testing.T) (*trace.Trace, []*trace.CritSec) {
	t.Helper()
	a := workload.MustGet("openldap")
	p := a.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7})
	res := sim.Run(p, sim.Config{Seed: 7})
	return res.Trace, res.Trace.ExtractCS()
}

// TestVerdictTableReducesReplays pins the reversed-replay counters on
// the openldap fixture: per-lock memos (shards without a table)
// re-replay recurring region pairs (39 replays), while one shared table
// pays each class once (24) and the table-backed shards pay nothing.
// The exact values are deterministic functions of the fixture; a
// change means the walk or the memo key changed and must be deliberate.
func TestVerdictTableReducesReplays(t *testing.T) {
	tr, css := openldapFixture(t)
	opts := Options{}

	table, rep := BuildVerdictTable(tr, css, opts)

	groups := SortedLockGroups(css)
	perLock := make([]*Report, len(groups))
	var shardReplays int
	for i, g := range groups {
		perLock[i] = IdentifyShardWithVerdicts(tr, g, opts, nil)
		shardReplays += IdentifyShardWithVerdicts(tr, g, opts, table).ReversedReplays
	}
	sharded := MergeReports(perLock...)

	if table.Replays >= sharded.ReversedReplays {
		t.Fatalf("shared table spent %d replays, per-lock memo %d — table must reduce them",
			table.Replays, sharded.ReversedReplays)
	}
	if shardReplays != 0 {
		t.Fatalf("table-backed shards performed %d replays, want 0", shardReplays)
	}
	// Pin the exact trajectory (the ROADMAP's measured 24 → 39).
	if table.Replays != 24 || sharded.ReversedReplays != 39 {
		t.Fatalf("replay counters moved: table=%d (want 24), per-lock=%d (want 39)",
			table.Replays, sharded.ReversedReplays)
	}
	if rep.ReversedReplays != table.Replays {
		t.Fatalf("build report counts %d replays, table %d", rep.ReversedReplays, table.Replays)
	}
}

// TestVerdictTableShardsMatchIdentify: shards consulting the shared
// table reproduce Identify exactly — same pairs in the same order, same
// counts and causal edges — because the table carries Identify's own
// verdicts, including the early stops they imply. This is what makes a
// cached-table run byte-identical to a fresh one.
func TestVerdictTableShardsMatchIdentify(t *testing.T) {
	for _, app := range []string{"openldap", "pbzip2", "mysql"} {
		a := workload.MustGet(app)
		p := a.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7})
		res := sim.Run(p, sim.Config{Seed: 7})
		tr := res.Trace
		css := tr.ExtractCS()
		opts := Options{}

		serial := Identify(tr, css, opts)
		table, buildRep := BuildVerdictTable(tr, css, opts)

		groups := SortedLockGroups(css)
		shards := make([]*Report, len(groups))
		for i, g := range groups {
			shards[i] = IdentifyShardWithVerdicts(tr, g, opts, table)
		}
		merged := MergeReports(shards...)

		if !reflect.DeepEqual(merged.Pairs, serial.Pairs) {
			t.Fatalf("%s: table-shard pairs differ from Identify (%d vs %d)",
				app, len(merged.Pairs), len(serial.Pairs))
		}
		if !reflect.DeepEqual(merged.Counts, serial.Counts) {
			t.Fatalf("%s: counts differ: %v vs %v", app, merged.Counts, serial.Counts)
		}
		if !reflect.DeepEqual(merged.CausalEdges, serial.CausalEdges) {
			t.Fatalf("%s: causal edges differ", app)
		}
		if !reflect.DeepEqual(buildRep.Pairs, serial.Pairs) {
			t.Fatalf("%s: build-pass report differs from Identify", app)
		}
	}
}

// TestVerdictTableJSONRoundTrip: the table survives the JSON transport
// used by cross-node table probes.
func TestVerdictTableJSONRoundTrip(t *testing.T) {
	tr, css := openldapFixture(t)
	table, _ := BuildVerdictTable(tr, css, Options{})
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var back VerdictTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, table) {
		t.Fatal("verdict table changed across JSON round trip")
	}

	groups := SortedLockGroups(css)
	want := IdentifyShardWithVerdicts(tr, groups[0], Options{}, table)
	got := IdentifyShardWithVerdicts(tr, groups[0], Options{}, &back)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("shard report differs under round-tripped table")
	}
}

// TestWireReportRoundTrip: a report crosses the CS-ID wire format and
// rehydrates into an equal report against the receiver's own critical
// sections; unknown IDs are an error.
func TestWireReportRoundTrip(t *testing.T) {
	tr, css := openldapFixture(t)
	rep := Identify(tr, css, Options{})

	data, err := json.Marshal(rep.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireReport
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.Rehydrate(CSByID(css))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Pairs, rep.Pairs) {
		t.Fatalf("rehydrated pairs differ (%d vs %d)", len(back.Pairs), len(rep.Pairs))
	}
	if !reflect.DeepEqual(back.Counts, rep.Counts) {
		t.Fatalf("rehydrated counts differ: %v vs %v", back.Counts, rep.Counts)
	}
	if !reflect.DeepEqual(back.CausalEdges, rep.CausalEdges) {
		t.Fatal("rehydrated causal edges differ")
	}
	if back.Truncated != rep.Truncated || back.ReversedReplays != rep.ReversedReplays {
		t.Fatal("rehydrated counters differ")
	}

	bad := &WireReport{Pairs: []WirePair{{C1: 1 << 30, C2: 0}}}
	if _, err := bad.Rehydrate(CSByID(css)); err == nil {
		t.Fatal("rehydrating an unknown CS ID must fail")
	}
}
