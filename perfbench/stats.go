package main

import "sort"

// tailBeyond is how many samples must lie above a reported tail
// percentile, so that the tail is never set by one or two outliers.
const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a tail latency together with the percentile it sits at
// and the sample count it came from.
type tailStat struct {
	Value float64
	// Pct is the nearest-rank percentile of Value: the share of samples
	// at or below it, in percent.
	Pct float64
	// N is the number of samples.
	N int
	// OK is false when there were too few samples for any percentile to
	// have tailBeyond samples above it; Value is then the upper quartile.
	OK bool
}

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it. With tailBeyond or fewer samples no
// percentile qualifies, and tail returns the nearest-rank upper quartile
// instead: the maximum of a handful of samples is set by the one
// slowest, which a shared machine makes unsteady from run to run.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		k := (3*n+3)/4 - 1 // nearest rank of p75: ceil(0.75 n), 1-based
		return tailStat{Value: s[k], Pct: 100 * float64(k+1) / float64(n), N: n}
	}
	k := n - tailBeyond - 1
	return tailStat{Value: s[k], Pct: 100 * float64(k+1) / float64(n), N: n, OK: true}
}
