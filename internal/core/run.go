package core

import (
	"math"
	"time"

	"ksp/internal/faultinject"
)

// candidate is one place the algorithm considers, produced in the serial
// algorithm's order. bound is the pop-time lower bound on the score of
// this and every later candidate: MinScore(dist) for the
// distance-ordered stream (BSP/SPP), the α-bound f(λ(p), S) for SP.
type candidate struct {
	place uint32
	dist  float64
	bound float64
}

// candSource yields candidates in the serial algorithm's order. next
// returns false when the stream is exhausted or provably beyond any
// possible result; close flushes access counters into the source's
// Stats.
type candSource interface {
	next() (candidate, bool)
	close()
}

// run is the evaluation loop shared by BSP, SPP and SP: pop the next
// candidate, stop when its bound reaches θ (no later candidate can
// improve the top-k), otherwise apply the selected pruning rules,
// construct the TQSP, and offer the result to Hk. rule1/rule2 select
// which pruning rules the loop applies. run owns src and closes it.
func (e *Engine) run(src candSource, pq *prepQuery, opts Options, hk *topK, stats *Stats, rule1, rule2 bool) error {
	// Windowed scheduling (DESIGN.md §11) wraps the candidate source;
	// Options.Window == 1 bypasses the layer entirely, reproducing the
	// classic loop bit-for-bit. With a window, Rule 1 moves into the
	// fill-time screens, so the loop must not re-apply it.
	if w, adaptive := resolveWindow(opts); w != 1 {
		src = e.wrapWindow(src, pq, hk, stats, w, adaptive, rule1, rule2)
		rule1 = false
	}
	defer src.close()
	root := opts.Trace.Root()
	s := newSearcher(e, pq, stats, opts.CollectTrees)
	defer s.release()
	lim := limiterFor(opts)

	for {
		cand, ok := src.next()
		if !ok {
			return nil
		}
		// Termination: bounds are non-decreasing along the stream.
		if cand.bound >= hk.theta() {
			return nil
		}
		stats.PlacesRetrieved++
		// The deadline/cancel poll is per candidate: each one costs a
		// TQSP construction, so the time.Now is noise, and checking
		// before the expensive work keeps the overshoot at one BFS.
		if lim.stop(stats) {
			recordPartial(stats, cand.bound)
			return nil
		}
		faultinject.Fire(PointSerialCandidate)
		cs := root.Child("candidate")
		cs.SetInt("place", int64(cand.place))
		cs.SetFloat("dist", cand.dist)
		if rule1 && e.unqualified(cand.place, pq, stats) {
			cs.SetStr("pruned", "rule1")
			cs.End()
			continue
		}
		lw := math.Inf(1)
		if rule2 {
			lw = e.Rank.LoosenessThreshold(hk.theta(), cand.dist)
		}
		s.curSpan = cs
		semStart := time.Now()
		loose, tree := s.semanticPlace(cand.place, lw)
		stats.SemanticTime += time.Since(semStart)
		s.curSpan = nil
		if math.IsInf(loose, 1) {
			cs.SetStr("outcome", "rejected")
			cs.End()
			continue
		}
		if f := e.Rank.Score(loose, cand.dist); f < hk.theta() {
			hk.add(Result{Place: cand.place, Looseness: loose, Dist: cand.dist, Score: f, Tree: tree})
			cs.SetStr("outcome", "accepted")
		} else {
			cs.SetStr("outcome", "below-threshold")
		}
		cs.End()
	}
}
