package main

import (
	"math/rand"
	"sync"
	"time"
)

// class is the kind of a daemon job, named by which daemon cache it
// meets.
type class int

const (
	// cold stores a never-analyzed trace in the corpus and analyzes it:
	// result cache and verdict-table cache both miss.
	cold class = iota
	// reflag re-analyzes an earlier cold trace with scheme replays
	// added: the result cache misses, the verdict-table cache hits.
	reflag
	// repeat resubmits an earlier cold job unchanged: the result cache
	// hits.
	repeat
	numClasses
)

func (c class) String() string {
	return [...]string{"cold", "reflag", "repeat"}[c]
}

// recentCold bounds how far back a reflag or repeat may reach for its
// cold target. It stays well inside the daemon's default result cache
// (128 entries) and verdict-table cache (64 entries), so a repeat
// always hits and a reflag always finds its table.
const recentCold = 32

// plannedJob is one entry of a run's job sequence.
type plannedJob struct {
	Class class
	// Trace is the pool index of the trace the job analyzes.
	Trace int
	// Target is the index of the earlier cold job a reflag or repeat
	// goes back to, or -1 for a cold job.
	Target int
}

// planJobs draws a run's job sequence from its seed: each job's class
// is drawn with the given weights (cold, reflag, repeat), cold jobs
// take the next unused pool trace, and reflags and repeats pick an
// earlier cold job within recentCold. Each cold trace is reflagged at
// most once, since a second reflag would hit the result cache. A draw
// with no eligible target becomes a cold job. The sequence ends when a
// cold job would need more than poolSize traces.
func planJobs(seed int64, weights [numClasses]int, poolSize int) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range weights {
		total += w
	}
	var plan []plannedJob
	var colds []int // job indices of cold jobs, in order
	reflagged := map[int]bool{}
	for {
		c := class(0)
		for r := rng.Intn(total); r >= weights[c]; c++ {
			r -= weights[c]
		}
		recent := colds[max(0, len(colds)-recentCold):]
		target := -1
		switch c {
		case reflag:
			var eligible []int
			for _, j := range recent {
				if !reflagged[j] {
					eligible = append(eligible, j)
				}
			}
			if len(eligible) > 0 {
				target = eligible[rng.Intn(len(eligible))]
				reflagged[target] = true
			}
		case repeat:
			if len(recent) > 0 {
				target = recent[rng.Intn(len(recent))]
			}
		}
		if target < 0 {
			if len(colds) == poolSize {
				return plan
			}
			colds = append(colds, len(plan))
			plan = append(plan, plannedJob{Class: cold, Trace: len(colds) - 1, Target: -1})
			continue
		}
		plan = append(plan, plannedJob{Class: c, Trace: plan[target].Trace, Target: target})
	}
}

// planCycle returns one cycle of a fixed plan: a cold job on the given
// pool trace, then a reflag and the given number of repeats of it.
func planCycle(trace, repeats int) []plannedJob {
	plan := []plannedJob{{Class: cold, Trace: trace, Target: -1}, {Class: reflag, Trace: trace, Target: 0}}
	for r := 0; r < repeats; r++ {
		plan = append(plan, plannedJob{Class: repeat, Trace: trace, Target: 0})
	}
	return plan
}

// closedLoop runs the plan with the given number of clients. A client
// takes the next job only after its previous one completed, and stops
// taking jobs at the deadline; jobs are taken in plan order. Before a
// reflag or repeat runs, its target job must have completed, so that
// it meets the cache state its class names. closedLoop returns how many
// jobs ran, once all of them have completed.
func closedLoop(clients int, deadline time.Time, plan []plannedJob, run func(i int)) int {
	done := make([]chan struct{}, len(plan))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= len(plan) || !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if t := plan[i].Target; t >= 0 {
					<-done[t]
				}
				run(i)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return next
}
