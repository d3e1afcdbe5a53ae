package core

import (
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// Options.Cancel must abort evaluation promptly and set the flag, leaving
// the engine usable.
func TestCancelAllAlgorithms(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(2000, 960))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 961)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 10}
	done := make(chan struct{})
	close(done) // already cancelled: the first poll must fire
	for _, a := range allAlgos {
		_, stats, err := a.run(e, q, Options{Cancel: done})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !stats.Cancelled {
			t.Errorf("%s: expected Cancelled flag", a.name)
		}
		res, _, err := a.run(e, q, Options{})
		if err != nil || len(res) == 0 {
			t.Errorf("%s after cancel: %v results, err %v", a.name, len(res), err)
		}
	}
}

// Deadlines must be honoured by every algorithm without corrupting state.
func TestDeadlineAllAlgorithms(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(2000, 801))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 802)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 10}
	for _, a := range allAlgos {
		_, stats, err := a.run(e, q, Options{Deadline: 1}) // 1ns
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !stats.TimedOut {
			t.Errorf("%s: expected timeout flag", a.name)
		}
		// The engine stays usable afterwards.
		res, _, err := a.run(e, q, Options{})
		if err != nil || len(res) == 0 {
			t.Errorf("%s after timeout: %v results, err %v", a.name, len(res), err)
		}
	}
}
