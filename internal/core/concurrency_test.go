package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// Engines are read-only after construction; concurrent queries (all four
// algorithms at once, from many goroutines) must race-free produce the
// same answers as a serial run. Run with -race to verify.
func TestConcurrentQueries(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 303))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 304)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)

	type job struct {
		q    Query
		want []Result
	}
	jobs := make([]job, 6)
	for i := range jobs {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 4}
		want, _, err := e.SP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q: q, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*4*4)
	for rep := 0; rep < 4; rep++ {
		for _, j := range jobs {
			for _, a := range allAlgos {
				wg.Add(1)
				go func(j job, a algo) {
					defer wg.Done()
					got, _, err := a.run(e, j.q, Options{})
					if err != nil {
						errs <- err
						return
					}
					if len(got) != len(j.want) {
						errs <- errMismatch
						return
					}
					for i := range got {
						if got[i].Place != j.want[i].Place {
							errs <- errMismatch
							return
						}
					}
				}(j, a)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result mismatch" }

// Requests are the only source of parallelism: queries run at the same
// time on one shared engine, with and without the looseness cache, must
// return results bit-identical to a serial, cacheless run of the same
// query — materialized trees included.
func TestParallelMatchesSerial(t *testing.T) {
	configs := []gen.Config{
		gen.DBpediaConfig(1500, 901),
		gen.YagoConfig(1500, 902),
	}
	for ci, cfg := range configs {
		g := gen.Generate(cfg)
		qg := gen.NewQueryGen(g, rdf.Outgoing, int64(910+ci))
		ref := NewEngine(g, rdf.Outgoing)
		ref.EnableReach()
		ref.EnableAlpha(3)
		cached := NewEngine(g, rdf.Outgoing)
		cached.EnableReach()
		cached.EnableAlpha(3)
		cached.EnableLoosenessCache(0)

		type job struct {
			a    algo
			q    Query
			want []Result
		}
		var jobs []job
		rng := rand.New(rand.NewSource(int64(920 + ci)))
		for trial := 0; trial < 6; trial++ {
			m := 1 + rng.Intn(5)
			k := 1 + rng.Intn(8)
			loc, kws := qg.Original(m)
			q := Query{Loc: loc, Keywords: kws, K: k}
			for _, a := range loopAlgos {
				want, _, err := a.run(ref, q, Options{CollectTrees: true})
				if err != nil {
					t.Fatalf("%s serial: %v", a.name, err)
				}
				jobs = append(jobs, job{a: a, q: q, want: want})
			}
		}

		for _, e := range []*Engine{ref, cached} {
			got := make([][]Result, len(jobs))
			errs := make([]error, len(jobs))
			var wg sync.WaitGroup
			for i, j := range jobs {
				wg.Add(1)
				go func(i int, j job) {
					defer wg.Done()
					got[i], _, errs[i] = j.a.run(e, j.q, Options{CollectTrees: true})
				}(i, j)
			}
			wg.Wait()
			for i, j := range jobs {
				name := fmt.Sprintf("%s job %d", j.a.name, i)
				if errs[i] != nil {
					t.Fatalf("%s: %v", name, errs[i])
				}
				identicalResults(t, name, got[i], j.want)
				sameTrees(t, name, got[i], j.want)
			}
		}
	}
}

// Deadlines must hold for queries that run at the same time on one
// engine: each times out on its own, and none leaves state behind that
// spoils the concurrent full runs that follow.
func TestParallelDeadline(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(2000, 970))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 971)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 10}
	want := make([][]Result, len(loopAlgos))
	for i, a := range loopAlgos {
		res, _, err := a.run(e, q, Options{})
		if err != nil || len(res) == 0 {
			t.Fatalf("%s reference: %v results, err %v", a.name, len(res), err)
		}
		want[i] = res
	}

	const reps = 4
	var wg sync.WaitGroup
	timedOut := make([]bool, reps*len(loopAlgos))
	errs := make([]error, len(timedOut))
	for r := 0; r < reps; r++ {
		for i, a := range loopAlgos {
			wg.Add(1)
			go func(slot int, a algo) {
				defer wg.Done()
				var stats *Stats
				_, stats, errs[slot] = a.run(e, q, Options{Deadline: 1}) // 1ns
				timedOut[slot] = stats != nil && stats.TimedOut
			}(r*len(loopAlgos)+i, a)
		}
	}
	wg.Wait()
	for slot := range timedOut {
		name := loopAlgos[slot%len(loopAlgos)].name
		if errs[slot] != nil {
			t.Fatalf("%s: %v", name, errs[slot])
		}
		if !timedOut[slot] {
			t.Errorf("%s (slot %d): expected timeout flag", name, slot)
		}
	}

	got := make([][]Result, reps*len(loopAlgos))
	for r := 0; r < reps; r++ {
		for i, a := range loopAlgos {
			wg.Add(1)
			go func(slot int, a algo) {
				defer wg.Done()
				got[slot], _, errs[slot] = a.run(e, q, Options{})
			}(r*len(loopAlgos)+i, a)
		}
	}
	wg.Wait()
	for slot := range got {
		i := slot % len(loopAlgos)
		name := loopAlgos[i].name + " after timeout"
		if errs[slot] != nil {
			t.Fatalf("%s: %v", name, errs[slot])
		}
		identicalResults(t, name, got[slot], want[i])
	}
}
