package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"perfplay/internal/sim"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// recordApp records a registered workload model at one seed and returns
// the trace as columnar bytes, the encoding the daemon stores and the
// in-process path decodes.
func recordApp(app string, threads int, scale float64, seed int64) ([]byte, error) {
	a, ok := workload.Get(app)
	if !ok {
		return nil, fmt.Errorf("unknown workload model %q", app)
	}
	prog := a.Build(workload.Config{Threads: threads, Scale: scale, Seed: seed})
	return encode(sim.Run(prog, sim.Config{Seed: seed}))
}

// Shape of the read-mostly program: readmostlyThreads threads each run
// readmostlySections lock/read/unlock sections on one lock.
const (
	readmostlyThreads  = 4
	readmostlySections = 500
)

// recordReadMostly builds and records the read-mostly program: one
// lock guarding one shared word that every thread reads in short
// sections separated by seeded compute gaps. Every cross-thread pair
// of sections is a read-read ULCP, so the pair count grows with the
// square of the section count (6 thread pairs × 500² ≈ 1.5M) while the
// event count stays near 8k.
func recordReadMostly(seed int64) ([]byte, error) {
	p := sim.NewProgram("readmostly")
	mu := p.NewLock("table_mutex")
	word := p.Mem.Alloc("table", 8)
	sLock := p.Site("table.c", 10, "lookup")
	sRead := p.Site("table.c", 11, "lookup")
	sUnlock := p.Site("table.c", 12, "lookup")
	for t := 0; t < readmostlyThreads; t++ {
		p.AddThread(func(th *sim.Thread) {
			for i := 0; i < readmostlySections; i++ {
				th.Lock(mu, sLock)
				th.Read(word, sRead)
				th.Unlock(mu, sUnlock)
				th.Compute(vtime.Duration(60 + th.Intn(120)))
			}
		})
	}
	return encode(sim.Run(p, sim.Config{Seed: seed}))
}

func encode(rec *sim.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := rec.Trace.WriteColumnar(&buf); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	return buf.Bytes(), nil
}

// recordPool records n traces at seeds derived from the workload seed,
// two at a time. Trace i depends only on (seed, i).
func recordPool(n int, seed int64, record func(seed int64) ([]byte, error)) ([][]byte, error) {
	out := make([][]byte, n)
	errs := make([]error, n)
	inParallel(n, func(i int) { out[i], errs[i] = record(traceSeed(seed, i)) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inParallel calls f(0) … f(n-1) on two goroutines, one per CPU of the
// machines the benchmark is sized for, and returns when all are done.
func inParallel(n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// traceSeed derives the recording seed of pool trace i, so no two
// traces of one run — and no two runs with different seeds — share a
// recording seed.
func traceSeed(seed int64, i int) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Int63()
}
