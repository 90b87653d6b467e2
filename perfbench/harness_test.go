package main

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfplay/internal/corpus"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	got := tail(xs)
	if want := (tailStat{Value: 90, Pct: 90, N: 100, OK: true}); got != want {
		t.Fatalf("tail(1..100) = %+v, want %+v", got, want)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	eleven := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}
	if got := tail(eleven); got.Value != 1 || !got.OK || got.N != 11 {
		t.Fatalf("tail of 11 samples = %+v, want the minimum with 10 beyond", got)
	}
	ten := []float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10}
	if got := tail(ten); got.OK || got.Value != 8 || got.N != 10 || got.Pct != 80 {
		t.Fatalf("tail of 10 samples = %+v, want the upper quartile (8, p80) flagged as not OK", got)
	}
	for n, want := range map[int]float64{1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 5, 7: 6, 8: 6} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		if got := tail(xs); got.OK || got.Value != want {
			t.Fatalf("tail of 1..%d = %+v, want the nearest-rank p75 %v", n, got, want)
		}
	}
	if got := tail(nil); got != (tailStat{}) {
		t.Fatalf("tail(nil) = %+v, want zero", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSeedDeterminesTraces(t *testing.T) {
	for _, w := range workloads {
		if w.Name == "parsec-large" && testing.Short() {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			a, err := recordPool(2, 7, w.Record)
			if err != nil {
				t.Fatal(err)
			}
			b, err := recordPool(2, 7, w.Record)
			if err != nil {
				t.Fatal(err)
			}
			c, err := recordPool(2, 8, w.Record)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("trace %d differs between two set-ups with seed 7", i)
				}
				if bytes.Equal(a[i], c[i]) {
					t.Fatalf("trace %d is the same for seeds 7 and 8", i)
				}
			}
			if bytes.Equal(a[0], a[1]) {
				t.Fatal("two traces of one pool are identical")
			}
		})
	}
}

func TestSeedDeterminesJobPlan(t *testing.T) {
	for _, w := range workloads {
		if w.Cycles > 0 {
			continue // a fixed plan, checked below
		}
		a := planJobs(3, w.Weights, 200)
		if !reflect.DeepEqual(a, planJobs(3, w.Weights, 200)) {
			t.Fatalf("%s: plan differs between two draws with seed 3", w.Name)
		}
		if reflect.DeepEqual(a, planJobs(4, w.Weights, 200)) {
			t.Fatalf("%s: plan is the same for seeds 3 and 4", w.Name)
		}
		colds, reflagged := 0, map[int]bool{}
		var n [numClasses]int
		for i, j := range a {
			n[j.Class]++
			if j.Class == cold {
				if j.Trace != colds || j.Target != -1 {
					t.Fatalf("%s: cold job %d = %+v, want fresh trace %d", w.Name, i, j, colds)
				}
				colds++
				continue
			}
			tg := j.Target
			if tg < 0 || tg >= i || a[tg].Class != cold || a[tg].Trace != j.Trace {
				t.Fatalf("%s: job %d = %+v does not go back to an earlier cold job", w.Name, i, j)
			}
			if colds-a[tg].Trace > recentCold {
				t.Fatalf("%s: job %d reaches back %d cold jobs", w.Name, i, colds-a[tg].Trace)
			}
			if j.Class == reflag {
				if reflagged[tg] {
					t.Fatalf("%s: cold job %d reflagged twice", w.Name, tg)
				}
				reflagged[tg] = true
			}
		}
		if colds != 200 || n[reflag] == 0 || n[repeat] == 0 {
			t.Fatalf("%s: plan has %v jobs per class over %d cold traces", w.Name, n, colds)
		}
	}
}

func TestPlanCycle(t *testing.T) {
	got := planCycle(3, 2)
	want := []plannedJob{{cold, 3, -1}, {reflag, 3, 0}, {repeat, 3, 0}, {repeat, 3, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planCycle(3, 2) = %+v, want %+v", got, want)
	}
}

func TestClosedLoopBoundsInFlight(t *testing.T) {
	plan := planJobs(1, [numClasses]int{2, 1, 1}, 100)
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	finished := map[int]bool{}
	ran := closedLoop(2, time.Now().Add(time.Minute), plan, func(i int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		mu.Lock()
		if tg := plan[i].Target; tg >= 0 && !finished[tg] {
			t.Errorf("job %d started before its target %d finished", i, tg)
		}
		mu.Unlock()
		time.Sleep(time.Duration(1+i%3) * time.Millisecond)
		mu.Lock()
		finished[i] = true
		mu.Unlock()
		inFlight.Add(-1)
	})
	if ran != len(plan) || len(finished) != len(plan) {
		t.Fatalf("ran %d of %d jobs (%d finished)", ran, len(plan), len(finished))
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak in-flight jobs = %d, want 2", p)
	}

	start := time.Now()
	ran = closedLoop(2, start.Add(20*time.Millisecond), plan, func(int) { time.Sleep(5 * time.Millisecond) })
	if ran >= len(plan) || time.Since(start) > time.Second {
		t.Fatalf("closed loop ran %d jobs in %v past a 20ms deadline", ran, time.Since(start))
	}
}

func TestDecompositionMatchesPipelineAndRepeats(t *testing.T) {
	data, err := workloads[0].Record(11)
	if err != nil {
		t.Fatal(err)
	}
	p := &poolTrace{Bytes: data, Digest: corpus.Digest(data)}
	report, _, _, err := analyzeBytes(p, false, pipelineWorkers)
	if err != nil {
		t.Fatal(err)
	}
	a, err := decompose(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != report {
		t.Fatalf("traced summary differs from pipeline.Run's report:\n%s\nvs\n%s", a.Summary, report)
	}
	b, err := decompose(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Fatalf("work counts differ between two analyses: %+v vs %+v", a.Counts, b.Counts)
	}
	if a.Counts.Events == 0 || a.Counts.Pairs == 0 || a.Counts.ReversedReplays == 0 {
		t.Fatalf("implausible counts %+v", a.Counts)
	}
}
