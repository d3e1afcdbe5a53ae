package core

import (
	"math"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// The dense Mq scratch must recycle cleanly across queries (epoch
// stamping): interleave queries with different keyword sets and verify
// no stale mask leaks into answers.
func TestDenseMQRecycling(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1000, 990))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 991)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	type ql struct {
		q    Query
		want []Result
	}
	var qs []ql
	for i := 0; i < 5; i++ {
		loc, kws := qg.Original(1 + i%4)
		q := Query{Loc: loc, Keywords: kws, K: 3}
		want, _, err := e.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, ql{q, want})
	}
	// Re-run interleaved: pooled denseMQ instances get reused with
	// different term sets; answers must be stable.
	for rep := 0; rep < 3; rep++ {
		for i := len(qs) - 1; i >= 0; i-- {
			got, _, err := e.SPP(qs[i].q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "SPP-recycle", got, qs[i].want)
		}
	}
}

// The epoch-stamp wrap path in denseMQ must clear correctly.
func TestDenseMQEpochWrap(t *testing.T) {
	d := &denseMQ{}
	d.reset(4)
	d.or(2, 0b1)
	d.epoch = math.MaxUint32 // force the wrap on next reset
	d.stamp[2] = math.MaxUint32
	d.reset(4)
	if d.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", d.epoch)
	}
	if d.get(2) != 0 {
		t.Fatal("stale mask survived epoch wrap")
	}
	d.or(3, 0b10)
	if d.get(3) != 0b10 || d.size() != 1 {
		t.Fatal("denseMQ broken after wrap")
	}
}
