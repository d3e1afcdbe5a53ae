package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ksp"
	"ksp/internal/core"
	"ksp/internal/nt"
	"ksp/internal/rdf"
	"ksp/internal/shard"
	"ksp/internal/store"
)

// replayN is how many queries of the workload's request sequence the
// traced run replays in-process.
const replayN = 200

// describeN is how many uniformly drawn vertices store.describe_us
// averages over.
const describeN = 2000

// measureLayers takes the per-layer measurements of a traced run. Every
// layer is measured from outside: the benchmark times its own calls into
// the layer's public functions and reads the counters the program
// exports. ds is the served dataset, after the load phases. put records
// a metric of the result; note prints a reading that is 0 on some
// workload, by construction or by chance.
func measureLayers(w workload, algo ksp.Algorithm, in *inputs, ds *ksp.Dataset, dir string, put func(string, float64), note func(string, string, float64)) error {
	var replay []ksp.Query
	for i := 0; len(replay) < replayN && i < len(in.seq); i++ {
		if idx := in.seq[i]; idx >= 0 {
			q := in.pool[idx]
			replay = append(replay, ksp.Query{Loc: ksp.Point{X: q.X, Y: q.Y}, Keywords: q.Keywords, K: w.K})
		}
	}

	// lru: the served dataset's cache after the load phases, where the
	// workload turns the cache on.
	if cs, ok := ds.CacheStats(); ok {
		hits := float64(cs.Hits + cs.BoundHits)
		note("lru.hit_ratio", "ratio", ratio(hits, hits+float64(cs.Misses)))
		note("lru.entries", "count", float64(cs.Entries))
	}

	// shard: one Local shard behind the coordinator against the same
	// dataset called directly, paired per query in alternating order.
	coord, err := shard.New([]shard.Shard{shard.NewLocal("n1", ds)}, shard.Config{HealthInterval: -1})
	if err != nil {
		return err
	}
	var diffs []float64
	for i, q := range replay {
		direct := func() error {
			_, _, err := ds.SearchWith(algo, q, ksp.Options{})
			return err
		}
		gather := func() error {
			_, err := coord.Search(context.Background(), shard.Request{X: q.Loc.X, Y: q.Loc.Y, Keywords: q.Keywords, K: q.K, Algo: algo})
			return err
		}
		var dDirect, dGather time.Duration
		if i%2 == 0 {
			dDirect, err = timed(direct)
			if err == nil {
				dGather, err = timed(gather)
			}
		} else {
			dGather, err = timed(gather)
			if err == nil {
				dDirect, err = timed(direct)
			}
		}
		if err != nil {
			coord.Close()
			return err
		}
		diffs = append(diffs, float64(dGather-dDirect)/1e3)
	}
	coord.Close()
	put("shard.n1_overhead_us", quantile(diffs, 0.5))

	// core: a serial replay on a dataset configured like the served one
	// but fresh, so the work counts repeat exactly.
	replayDS := ds
	if w.CacheEntries != 0 {
		if replayDS, err = openDataset(w, in, w.CacheEntries); err != nil {
			return err
		}
		//ksplint:ignore droppederr -- in-memory dataset; Close has nothing to release
		defer replayDS.Close()
	}
	if err := replayCore(algo, replay, replayDS, put, note); err != nil {
		return err
	}

	if err := measureEngineLayers(w, algo, in.graph, replay, put); err != nil {
		return err
	}
	return measureStore(w, in, ds, dir, put)
}

// replayCore runs the queries serially through Dataset.SearchWith and
// reports the core layer's times, work counts and allocations. Rules 3
// and 4 prune with the α index, which SPP never consults, and Rule 1
// fires about once in 200 SP queries, so their counts are notes.
func replayCore(algo ksp.Algorithm, replay []ksp.Query, ds *ksp.Dataset, put func(string, float64), note func(string, string, float64)) error {
	var sum ksp.Stats
	var results int
	var total []float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, q := range replay {
		res, st, err := ds.SearchWith(algo, q, ksp.Options{})
		if err != nil {
			return err
		}
		sum.Add(st)
		results += len(res)
		total = append(total, float64(st.TotalTime().Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(replay))
	put("core.query_us", quantile(total, 0.5))
	put("core.semantic_us", float64(sum.SemanticTime.Nanoseconds())/1e3/n)
	put("core.other_us", float64(sum.OtherTime.Nanoseconds())/1e3/n)
	put("core.tqsp_per_q", float64(sum.TQSPComputations)/n)
	put("core.bfs_visits_per_q", float64(sum.BFSVertexVisits)/n)
	put("core.places_per_q", float64(sum.PlacesRetrieved)/n)
	put("core.window_kill_ratio", ratio(float64(sum.WindowScreenKilled+sum.WindowDeferredKilled), float64(sum.WindowCandidates)))
	put("core.tqsp_yield", ratio(float64(results), float64(sum.TQSPComputations)))
	put("core.rule2_pruned_per_q", float64(sum.PrunedDynamicBound)/n)
	note("core.rule1_pruned_per_q", "count", float64(sum.PrunedUnqualified)/n)
	note("core.rule3_pruned_per_q", "count", float64(sum.PrunedAlphaPlaces)/n)
	note("core.rule4_pruned_per_q", "count", float64(sum.PrunedAlphaNodes)/n)
	put("core.allocs_per_q", float64(m1.Mallocs-m0.Mallocs)/n)
	put("core.bytes_per_q", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	put("reach.probes_per_q", float64(sum.ReachQueries)/n)
	put("rtree.nodes_per_q", float64(sum.RTreeNodeAccesses)/n)
	return nil
}

// measureEngineLayers builds the benchmark's own engine over the
// generated graph (reachability and α index on) and times, per replayed
// query, each layer the evaluation calls into, over the places the
// query retrieves on that engine.
func measureEngineLayers(w workload, algo ksp.Algorithm, g *rdf.Graph, replay []ksp.Query, put func(string, float64)) error {
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	t0 := time.Now()
	e.EnableAlpha(w.Alpha)
	put("alpha.build_s", time.Since(t0).Seconds())

	bfs := rdf.NewBFSState(g)
	var (
		resolveT, loadT, nextT, boundT, reachT, bfsT time.Duration
		places, probes, visits                       int64
		sink                                         float64
	)
	for _, q := range replay {
		t0 = time.Now()
		terms, err := resolve(e, q.Keywords)
		if err != nil {
			return err
		}
		resolveT += time.Since(t0)

		var st *core.Stats
		if algo == ksp.AlgoSPP {
			_, st, err = e.SPP(q, core.Options{})
		} else {
			_, st, err = e.SP(q, core.Options{})
		}
		if err != nil {
			return err
		}
		p := int(st.PlacesRetrieved)

		t0 = time.Now()
		qv, err := e.Alpha.LoadQuery(terms)
		if err != nil {
			return err
		}
		loadT += time.Since(t0)

		t0 = time.Now()
		items := e.Tree.NewBrowser(q.Loc).NextK(p, nil)
		nextT += time.Since(t0)
		places += int64(len(items))

		t0 = time.Now()
		for _, it := range items {
			sink += qv.PlaceBound(it.Item.ID)
		}
		boundT += time.Since(t0)
		qv.Release()

		t0 = time.Now()
		for _, it := range items {
			for _, t := range terms {
				if e.Reach.CanReach(it.Item.ID, t) {
					sink++
				}
			}
		}
		reachT += time.Since(t0)
		probes += int64(len(items) * len(terms))

		t0 = time.Now()
		for _, it := range items {
			bfs.Run(it.Item.ID, rdf.Outgoing, w.Alpha, func(uint32, int) bool {
				visits++
				return true
			})
		}
		bfsT += time.Since(t0)
	}
	n := float64(len(replay))
	put("invindex.resolve_us", float64(resolveT.Nanoseconds())/1e3/n)
	put("alpha.load_query_us", float64(loadT.Nanoseconds())/1e3/n)
	put("rtree.next_ns", ratio(float64(nextT.Nanoseconds()), float64(places)))
	put("alpha.place_bound_ns", ratio(float64(boundT.Nanoseconds()), float64(places)))
	put("reach.can_reach_ns", ratio(float64(reachT.Nanoseconds()), float64(probes)))
	put("rdf.bfs_ns_per_visit", ratio(float64(bfsT.Nanoseconds()), float64(visits)))
	layerSink = sink
	return nil
}

// layerSink keeps the measured calls' results live.
var layerSink float64

// resolve turns query keywords into distinct term IDs and fetches their
// postings through the engine's document index, as query preparation
// does.
func resolve(e *core.Engine, keywords []string) ([]uint32, error) {
	var terms []uint32
	seen := make(map[uint32]bool, len(keywords))
	for _, kw := range keywords {
		for _, tok := range e.G.Analyze(kw) {
			if id, ok := e.G.Vocab.Lookup(tok); ok && !seen[id] {
				seen[id] = true
				terms = append(terms, id)
			}
		}
	}
	for _, t := range terms {
		if _, err := e.Doc.Postings(t, nil); err != nil {
			return nil, err
		}
	}
	return terms, nil
}

// measureStore times the snapshot write and open of the workload's data,
// the N-Triples parse, and Dataset.Describe on uniformly drawn vertices
// of the served dataset.
func measureStore(w workload, in *inputs, ds *ksp.Dataset, dir string, put func(string, float64)) error {
	snap, saveS := in.snapPath, in.saveS
	if snap == "" {
		snap = filepath.Join(dir, "served.snap")
		t0 := time.Now()
		if err := ds.Save(snap); err != nil {
			return err
		}
		saveS = time.Since(t0).Seconds()
	}
	put("store.save_s", saveS)

	t0 := time.Now()
	if w.Serving == "snapshot_mmap" {
		s, err := store.OpenDisk(snap, true)
		if err != nil {
			return err
		}
		put("store.open_s", time.Since(t0).Seconds())
		if err := s.Close(); err != nil {
			return err
		}
	} else {
		if _, err := store.LoadFile(snap); err != nil {
			return err
		}
		put("store.open_s", time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(in.seed + 4000))
	n := ds.Stats().Vertices
	terms := 0
	t0 = time.Now()
	for i := 0; i < describeN; i++ {
		terms += len(ds.Describe(uint32(rng.Intn(n))))
	}
	layerSink += float64(terms)
	put("store.describe_us", float64(time.Since(t0).Nanoseconds())/1e3/describeN)

	f, err := os.Open(in.ntPath)
	if err != nil {
		return err
	}
	//ksplint:ignore droppederr -- file opened read-only; Close cannot lose data
	defer f.Close()
	t0 = time.Now()
	if _, err := nt.Load(f, rdf.NewBuilder()); err != nil {
		return err
	}
	put("nt.parse_s", time.Since(t0).Seconds())
	return nil
}

func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
