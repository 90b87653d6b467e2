package clustersim

import "testing"

// TestRangeLedgerCoversExactlyOnce: for a spread of cost shapes and
// executor counts, draining the ledger yields contiguous, non-empty,
// non-overlapping ranges whose union is exactly [0, n).
func TestRangeLedgerCoversExactlyOnce(t *testing.T) {
	cases := []struct {
		name      string
		costs     []int64
		executors int
	}{
		{"empty", nil, 3},
		{"single", []int64{26}, 3},
		{"uniform", []int64{2, 2, 2, 2}, 2},
		{"hot-head", []int64{10001, 2, 2, 2, 2, 2}, 3},
		{"hot-tail", []int64{2, 2, 2, 2, 2, 10001}, 3},
		{"ramp", []int64{5, 10, 17, 26, 37, 50, 65}, 4},
		{"one-executor", []int64{10, 10, 10, 10}, 1},
		{"fine-grain", []int64{17, 17, 17, 17, 17, 17, 17, 17}, 2},
		{"wide", []int64{2, 5, 2, 5, 2, 5, 2, 5, 2, 5, 2, 5}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newRangeLedger(tc.costs, tc.executors)
			next := 0
			for {
				start, end, ok := l.nextChunk()
				if !ok {
					break
				}
				if end <= start {
					t.Fatalf("empty chunk [%d, %d)", start, end)
				}
				if start != next {
					t.Fatalf("chunk [%d, %d) not contiguous with frontier %d", start, end, next)
				}
				next = end
			}
			if next != len(tc.costs) {
				t.Fatalf("ledger drained %d of %d groups", next, len(tc.costs))
			}
			if !l.drained() {
				t.Fatal("drained() = false after the drain")
			}
			// A drained ledger stays drained.
			if _, _, ok := l.nextChunk(); ok {
				t.Fatal("nextChunk() produced a chunk after the drain")
			}
		})
	}
}

// TestRangeLedgerIsolatesHotGroups: the dominant group must not drag
// its neighbors into one giant chunk — that would serialize the drain
// behind whoever pulled it.
func TestRangeLedgerIsolatesHotGroups(t *testing.T) {
	l := newRangeLedger([]int64{10001, 2, 2, 2, 2, 2}, 3)
	start, end, ok := l.nextChunk()
	if !ok || end-start != 1 {
		t.Fatalf("hot-group chunk = [%d, %d), want it isolated to one group", start, end)
	}
}
