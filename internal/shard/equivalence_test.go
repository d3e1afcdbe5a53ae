package shard_test

// The scatter-gather soundness property (DESIGN.md §14): when every
// shard answers, the coordinator's merged top-k is bit-identical to the
// single-engine answer over the whole dataset — same places, same
// scores, same order — across shard counts, window directives and cache
// settings. The proof sketch is that each shard runs
// the identical engine over a place-subset of the same graph (looseness
// is a graph property, unaffected by partitioning), so the global top-k
// is a subset of the union of per-shard top-ks, and the merge re-imposes
// the engine's (score, place) order.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"ksp"
	"ksp/internal/gen"
	"ksp/internal/nt"
	"ksp/internal/rdf"
	"ksp/internal/server"
	"ksp/internal/shard"
)

// buildDataset generates a synthetic graph and loads it through the
// public API, returning the dataset and a query generator over it.
func buildDataset(t *testing.T, cacheEntries int) (*ksp.Dataset, *gen.QueryGen) {
	t.Helper()
	g := gen.Generate(gen.DBpediaConfig(1200, 101))
	var buf bytes.Buffer
	if err := nt.WriteGraph(g, &buf); err != nil {
		t.Fatal(err)
	}
	cfg := ksp.DefaultConfig()
	cfg.LoosenessCacheEntries = cacheEntries
	ds, err := ksp.Open(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, gen.NewQueryGen(g, rdf.Outgoing, 202)
}

func quietConfig() shard.Config {
	return shard.Config{HedgeAfter: -1, HealthInterval: -1}
}

// localCoordinator partitions ds into n tiles and builds a coordinator
// of Local shards over them.
func localCoordinator(t *testing.T, ds *ksp.Dataset, n int) *shard.Coordinator {
	t.Helper()
	tiles, err := ds.PartitionSpatial(n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		members[i] = shard.NewLocal(fmt.Sprintf("tile%d", i), tile)
	}
	c, err := shard.New(members, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// requireIdentical asserts the gather matches the single-engine answer
// bit for bit.
func requireIdentical(t *testing.T, label string, want []ksp.Result, g *shard.Gather) {
	t.Helper()
	if g.Partial || g.Degraded {
		t.Fatalf("%s: healthy gather flagged partial=%v degraded=%v", label, g.Partial, g.Degraded)
	}
	if len(g.Results) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(g.Results), len(want))
	}
	for i := range want {
		got := g.Results[i]
		if got.Place != want[i].Place || got.Score != want[i].Score {
			t.Fatalf("%s: result %d = (place %d, score %v), want (place %d, score %v)",
				label, i, got.Place, got.Score, want[i].Place, want[i].Score)
		}
		if !got.Exact {
			t.Fatalf("%s: result %d of a complete gather not exact", label, i)
		}
	}
}

// Multi-shard scatter-gather is bit-identical to single-shard
// evaluation across shardCount × window × cache.
func TestShardedEquivalence(t *testing.T) {
	for _, cacheEntries := range []int{0, -1} {
		cacheEntries := cacheEntries
		t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
			ds, qg := buildDataset(t, cacheEntries)
			coords := map[int]*shard.Coordinator{}
			for _, n := range []int{1, 2, 4, 7} {
				coords[n] = localCoordinator(t, ds, n)
			}
			for qi := 0; qi < 4; qi++ {
				loc, kws := qg.Original(3)
				query := ksp.Query{Loc: ksp.Point{X: loc.X, Y: loc.Y}, Keywords: kws, K: 5}
				for _, window := range []int{0, 4} {
					want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{Window: window})
					if err != nil {
						t.Fatal(err)
					}
					req := shard.Request{
						X: query.Loc.X, Y: query.Loc.Y, Keywords: kws, K: query.K,
						Algo: ksp.AlgoSP, Window: window,
					}
					for _, n := range []int{1, 2, 4, 7} {
						label := fmt.Sprintf("q%d/w%d/shards%d", qi, window, n)
						g, err := coords[n].Search(context.Background(), req)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireIdentical(t, label, want, g)
					}
				}
			}
		})
	}
}

// The same property through Remote shards: each tile served by a real
// internal/server instance, spoken to over the /search wire format. The
// round trip (engine → JSON → coordinator merge) must preserve scores
// bit-for-bit (encoding/json emits shortest-round-trip float64).
func TestShardedEquivalenceRemote(t *testing.T) {
	ds, qg := buildDataset(t, 0)
	tiles, err := ds.PartitionSpatial(3)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		srv := httptest.NewServer(server.New(tile))
		t.Cleanup(srv.Close)
		members[i] = shard.NewRemote(fmt.Sprintf("remote%d", i), srv.URL, srv.Client())
	}
	c, err := shard.New(members, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Ping fetches each peer's MBR from /stats, enabling distance
	// pruning exactly as a health-checked production coordinator would.
	for _, m := range members {
		if err := m.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Bounds(); !ok {
			t.Fatalf("%s: bounds not fetched by ping", m.Name())
		}
	}

	for qi := 0; qi < 3; qi++ {
		loc, kws := qg.Original(3)
		query := ksp.Query{Loc: ksp.Point{X: loc.X, Y: loc.Y}, Keywords: kws, K: 5}
		want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Search(context.Background(), shard.Request{
			X: query.Loc.X, Y: query.Loc.Y, Keywords: kws, K: query.K, Algo: ksp.AlgoSP,
		})
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("remote/q%d", qi), want, g)
	}
}

// MaxDist propagates through the gather: the merged answer matches the
// single-engine radius-restricted answer, and out-of-radius shards are
// skipped rather than queried.
func TestShardedEquivalenceMaxDist(t *testing.T) {
	ds, qg := buildDataset(t, 0)
	c := localCoordinator(t, ds, 4)
	for qi := 0; qi < 3; qi++ {
		loc, kws := qg.Original(3)
		query := ksp.Query{Loc: ksp.Point{X: loc.X, Y: loc.Y}, Keywords: kws, K: 5}
		const radius = 0.2
		want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{MaxDist: radius})
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Search(context.Background(), shard.Request{
			X: query.Loc.X, Y: query.Loc.Y, Keywords: kws, K: query.K,
			Algo: ksp.AlgoSP, MaxDist: radius,
		})
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("maxdist/q%d", qi), want, g)
	}
}
