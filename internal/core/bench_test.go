package core

import (
	"math"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// Micro-benchmarks of the engine's hot paths, complementing the
// per-figure macro benchmarks at the module root.

func benchEngine(b *testing.B, shape func(int, int64) gen.Config) (*Engine, *gen.QueryGen) {
	b.Helper()
	g := gen.Generate(shape(8000, 42))
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	return e, gen.NewQueryGen(g, rdf.Outgoing, 43)
}

func BenchmarkPrepareQuery(b *testing.B) {
	e, qg := benchEngine(b, gen.DBpediaConfig)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetSemanticPlace(b *testing.B) {
	e, qg := benchEngine(b, gen.DBpediaConfig)
	loc, kws := qg.Original(5)
	pq, err := e.prepare(Query{Loc: loc, Keywords: kws, K: 5})
	if err != nil {
		b.Fatal(err)
	}
	s := newSearcher(e, pq, &Stats{}, false)
	places := e.G.Places()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.getSemanticPlace(places[i%len(places)], math.Inf(1))
	}
}

func BenchmarkGetSemanticPlaceWithBound(b *testing.B) {
	e, qg := benchEngine(b, gen.DBpediaConfig)
	loc, kws := qg.Original(5)
	pq, err := e.prepare(Query{Loc: loc, Keywords: kws, K: 5})
	if err != nil {
		b.Fatal(err)
	}
	s := newSearcher(e, pq, &Stats{}, false)
	places := e.G.Places()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.getSemanticPlace(places[i%len(places)], 3) // tight Lw: most constructions abort
	}
}

func benchAlgo(b *testing.B, run func(*Engine, Query, Options) ([]Result, *Stats, error), shape func(int, int64) gen.Config) {
	e, qg := benchEngine(b, shape)
	benchQueries(b, e, qg, run)
}

func benchQueries(b *testing.B, e *Engine, qg *gen.QueryGen, run func(*Engine, Query, Options) ([]Result, *Stats, error)) {
	queries := make([]Query, 16)
	for i := range queries {
		loc, kws := qg.Original(5)
		queries[i] = Query{Loc: loc, Keywords: kws, K: 5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := run(e, queries[i%len(queries)], Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuerySP(b *testing.B)  { benchAlgo(b, (*Engine).SP, gen.DBpediaConfig) }
func BenchmarkQuerySPP(b *testing.B) { benchAlgo(b, (*Engine).SPP, gen.DBpediaConfig) }
func BenchmarkQueryTA(b *testing.B)  { benchAlgo(b, (*Engine).TA, gen.DBpediaConfig) }

func BenchmarkQuerySPYago(b *testing.B) { benchAlgo(b, (*Engine).SP, gen.YagoConfig) }

// BenchmarkQuerySPCached repeats BenchmarkQuerySP's 16-query pool with
// the looseness cache on, so warm hits dominate.
func BenchmarkQuerySPCached(b *testing.B) {
	e, qg := benchEngine(b, gen.DBpediaConfig)
	e.EnableLoosenessCache(0)
	benchQueries(b, e, qg, (*Engine).SP)
}

func BenchmarkKeywordTopK(b *testing.B) {
	e, qg := benchEngine(b, gen.YagoConfig)
	_, kws := qg.Original(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.KeywordTopK(kws, 5, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
