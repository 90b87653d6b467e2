package clustersim

// rangeLedger is the simulated node's chunk scheduler: a frontier over
// a job's lock-group costs from which the node's workers pull
// contiguous chunks until nothing is left. A worker that is slow
// simply pulls less, and the groups behind it go to whoever is free.
//
// Chunks follow guided self-scheduling: each pull takes roughly
// remaining/(chunkFactor·executors) of the outstanding cost, so early
// chunks are large and late chunks are small (the tail balances to
// within one small chunk of perfectly even).
type rangeLedger struct {
	costs     []int64
	next      int   // first unclaimed group index
	remaining int64 // summed cost of costs[next:]
	divisor   int64 // chunkFactor · executors, the quantum denominator
}

// chunkFactor is how many chunks per executor a perfectly uniform drain
// would produce; >1 is what creates the migration slack.
const chunkFactor = 3

// newRangeLedger builds a ledger over per-group costs for the given
// executor count (at least 1; Config.validate enforces it).
func newRangeLedger(costs []int64, executors int) *rangeLedger {
	var total int64
	for _, c := range costs {
		total += c
	}
	return &rangeLedger{
		costs:     costs,
		remaining: total,
		divisor:   chunkFactor * int64(executors),
	}
}

// nextChunk claims the next chunk [start, end) of the frontier. ok=false
// means the ledger is drained. Every returned range is non-empty,
// contiguous with its predecessor, and disjoint from every other
// returned range; the union over all calls is exactly [0, len(costs)).
func (l *rangeLedger) nextChunk() (start, end int, ok bool) {
	if l.next >= len(l.costs) {
		return 0, 0, false
	}
	target := l.remaining / l.divisor
	var acc int64
	start, end = l.next, l.next
	// Always take at least one group; stop once the chunk would
	// meaningfully overshoot the quantum (the half-cost slack keeps a
	// single hot group from dragging its neighbors into its chunk).
	for end < len(l.costs) && (acc == 0 || acc+l.costs[end]/2 <= target) {
		acc += l.costs[end]
		end++
	}
	l.next = end
	l.remaining -= acc
	return start, end, true
}

// drained reports whether every group has been claimed.
func (l *rangeLedger) drained() bool { return l.next >= len(l.costs) }
