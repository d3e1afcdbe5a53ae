package core

import (
	"sync"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// The looseness cache must repay repeated queries — exact hits on the
// second identical query — while never changing answers, and its
// counters must reconcile.
func TestLoosenessCacheHitsAndStats(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 930))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 931)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableLoosenessCache(1 << 12)
	if _, ok := e.CacheStats(); !ok {
		t.Fatal("cache should report enabled")
	}
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 5}

	first, s1, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHits != 0 {
		t.Errorf("first run should have no exact hits, got %d", s1.CacheHits)
	}
	if s1.CacheMisses == 0 {
		t.Error("first run should record misses")
	}
	second, s2, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "SPP-cached-repeat", second, first)
	if s2.CacheHits == 0 {
		t.Error("repeat run should score exact hits")
	}
	if s2.TQSPComputations >= s1.TQSPComputations {
		t.Errorf("repeat run should construct fewer TQSPs: %d vs %d", s2.TQSPComputations, s1.TQSPComputations)
	}
	cs, ok := e.CacheStats()
	if !ok || cs.Entries == 0 {
		t.Fatalf("cache stats: %+v ok=%v", cs, ok)
	}
	if cs.Hits != s1.CacheHits+s2.CacheHits || cs.Misses != s1.CacheMisses+s2.CacheMisses {
		t.Errorf("engine counters %+v don't reconcile with per-query stats", cs)
	}
	if cs.HitRate() <= 0 || cs.HitRate() > 1 {
		t.Errorf("hit rate %v out of range", cs.HitRate())
	}

	// A disabled engine reports no cache.
	bare := NewEngine(g, rdf.Outgoing)
	if _, ok := bare.CacheStats(); ok {
		t.Error("bare engine should report no cache")
	}
}

// Cached exact +Inf (unqualified place) and Rule-2 lower bounds must not
// leak wrong answers across queries with different thresholds or
// locations: sweep many query locations over the same keyword set so
// later queries hit entries written under other thresholds.
func TestLoosenessCacheCrossQuerySoundness(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1200, 940))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 941)
	ref := NewEngine(g, rdf.Outgoing)
	ref.EnableReach()
	cached := NewEngine(g, rdf.Outgoing)
	cached.EnableReach()
	cached.EnableLoosenessCache(1 << 12)

	_, kws := qg.Original(3)
	for trial := 0; trial < 12; trial++ {
		loc, _ := qg.Original(1)
		q := Query{Loc: loc, Keywords: kws, K: 1 + trial%6}
		want, _, err := ref.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cached.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "SPP-crossquery", got, want)
	}
}

// Concurrent queries sharing one looseness cache: run under -race.
// Repeated keyword sets so cache entries are read, written and merged
// concurrently; all answers must match the cacheless reference.
func TestConcurrentCacheSharingStress(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 950))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 951)
	ref := NewEngine(g, rdf.Outgoing)
	ref.EnableReach()
	ref.EnableAlpha(3)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	e.EnableLoosenessCache(1 << 10) // small: force concurrent eviction too

	type job struct {
		q    Query
		want []Result
	}
	jobs := make([]job, 4) // few distinct queries → heavy key collision
	for i := range jobs {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 4}
		want, _, err := ref.SP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q: q, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for rep := 0; rep < 6; rep++ {
		for _, j := range jobs {
			for _, a := range loopAlgos {
				wg.Add(1)
				go func(j job, a algo) {
					defer wg.Done()
					got, _, err := a.run(e, j.q, Options{})
					if err != nil {
						errs <- err.Error()
						return
					}
					if len(got) != len(j.want) {
						errs <- a.name + ": length mismatch"
						return
					}
					for i := range got {
						if got[i].Place != j.want[i].Place || got[i].Score != j.want[i].Score {
							errs <- a.name + ": result mismatch"
							return
						}
					}
				}(j, a)
			}
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
