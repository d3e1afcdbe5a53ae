package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ksp"
	"ksp/internal/obs"
	"ksp/internal/shard"
)

// failShard is a shard.Shard that always errors — the server-level
// stand-in for a dead peer.
type failShard struct {
	name      string
	bounds    ksp.Rect
	hasBounds bool
}

func (f *failShard) Name() string             { return f.name }
func (f *failShard) Bounds() (ksp.Rect, bool) { return f.bounds, f.hasBounds }
func (f *failShard) Search(context.Context, shard.Request) (*shard.Response, error) {
	return nil, errors.New("shard down")
}
func (f *failShard) Ping(context.Context) error { return errors.New("shard down") }

// okShard wraps a Local shard (used where tests mix healthy and dead
// members).
func localShards(t *testing.T, ds *ksp.Dataset, n int) []shard.Shard {
	t.Helper()
	tiles, err := ds.PartitionSpatial(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		out[i] = shard.NewLocal(fmt.Sprintf("tile%d", i), tile)
	}
	return out
}

func quietShardCfg() shard.Config {
	return shard.Config{HedgeAfter: -1, HealthInterval: -1}
}

// shardedServer builds an httptest server whose /search scatter-gathers
// across the given shards.
func shardedServer(t *testing.T, ds *ksp.Dataset, cfg shard.Config, members ...shard.Shard) (*httptest.Server, *Server) {
	t.Helper()
	s := New(ds)
	coord, err := shard.New(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s.AttachShards(coord)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, s
}

func fixtureDS(t *testing.T) *ksp.Dataset {
	t.Helper()
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// A sharded /search must be JSON-identical (results-wise) to the
// single-engine response over the same dataset.
func TestShardedSearchMatchesSingleEngine(t *testing.T) {
	ds := fixtureDS(t)
	single := testServer(t)
	sharded, _ := shardedServer(t, ds, quietShardCfg(), localShards(t, ds, 2)...)

	for _, q := range []string{
		"/search?x=0&y=0&kw=roman,history&k=2",
		"/search?x=0&y=0&kw=roman,history&k=2&trees=1",
		"/search?x=4&y=4&kw=roman&k=1",
		"/search?x=0&y=0&kw=roman,history&k=2&maxdist=3",
	} {
		var want, got SearchResponse
		if resp := getJSON(t, single.URL+q, &want); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: single status %d", q, resp.StatusCode)
		}
		if resp := getJSON(t, sharded.URL+q, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: sharded status %d", q, resp.StatusCode)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: sharded results diverge:\n%+v\n%+v", q, got.Results, want.Results)
		}
		if got.Partial || got.Degraded != "" {
			t.Errorf("%s: healthy sharded response flagged partial=%v degraded=%q", q, got.Partial, got.Degraded)
		}
		for _, st := range got.Shards {
			switch st.State {
			case shard.StateOK, shard.StatePruned, shard.StateSkipped:
			default:
				t.Errorf("%s: shard %s state %q on a healthy gather", q, st.Shard, st.State)
			}
		}
	}
}

// Losing one shard degrades to a sound partial 200: partial set,
// degraded="shard-loss", a positive score floor, per-shard error detail, and exactness
// flags honest against the floor.
func TestShardedSearchDegradedOnShardFailure(t *testing.T) {
	ds := fixtureDS(t)
	dead := &failShard{
		name:      "dead",
		bounds:    ksp.Rect{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101},
		hasBounds: true,
	}
	cfg := quietShardCfg()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 100 // keep the breaker out of this test
	srv, _ := shardedServer(t, ds, cfg, append(localShards(t, ds, 1), dead)...)

	var got SearchResponse
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (sound partial)", resp.StatusCode)
	}
	if !got.Partial || got.Degraded != DegradedShardLoss {
		t.Fatalf("partial=%v degraded=%q, want true and %q", got.Partial, got.Degraded, DegradedShardLoss)
	}
	if got.ScoreLowerBound <= 0 {
		t.Fatalf("scoreLowerBound = %v, want the dead shard's MinDist floor", got.ScoreLowerBound)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %+v", got.Results)
	}
	// The dead shard's MBR is ~140 away; both fixture scores beat that
	// floor, so the prefix is provably exact.
	for i, r := range got.Results {
		if !r.Exact {
			t.Errorf("result %d not exact despite beating the floor: %+v", i, r)
		}
	}
	var deadStatus *shard.Status
	for i := range got.Shards {
		if got.Shards[i].Shard == "dead" {
			deadStatus = &got.Shards[i]
		}
	}
	if deadStatus == nil || deadStatus.State != shard.StateError || deadStatus.Error == "" {
		t.Fatalf("dead shard status = %+v, want error state with detail", deadStatus)
	}
}

// Every shard dead: 503 with Retry-After and the machine-readable
// degraded body, whose "degraded" key has the same string type as on a
// 200 SearchResponse.
func TestShardedSearchAllFailed(t *testing.T) {
	ds := fixtureDS(t)
	cfg := quietShardCfg()
	cfg.MaxAttempts = 1
	cfg.BreakerCooldown = 7 * time.Second
	srv, _ := shardedServer(t, ds, cfg, &failShard{name: "only"})

	var body struct {
		SearchResponse
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", &body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want %q (the breaker cooldown)", ra, "7")
	}
	if body.Degraded != DegradedAllShardsFailed {
		t.Errorf("degraded reason = %q, want %q", body.Degraded, DegradedAllShardsFailed)
	}
	if body.RetryAfterSeconds != 7 || body.Error == "" {
		t.Errorf("body = %+v", body)
	}
	if len(body.Shards) != 1 || body.Shards[0].State != shard.StateError {
		t.Errorf("per-shard detail = %+v", body.Shards)
	}
}

// /readyz on a sharded server: JSON with per-shard breaker health,
// flipping unready only once a quorum (half or more) of shards is down.
func TestShardedReadyQuorum(t *testing.T) {
	ds := fixtureDS(t)
	flaky := []*failShard{
		{name: "s0"}, {name: "s1"},
	}
	cfg := quietShardCfg()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Hour
	members := append(localShards(t, ds, 1), flaky[0], flaky[1])
	srv, s := shardedServer(t, ds, cfg, members...)

	var ready ReadyResponse
	if resp := getJSON(t, srv.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("all-up readyz status %d", resp.StatusCode)
	}
	if !ready.Ready || ready.ShardsUp != 3 || ready.ShardsTotal != 3 {
		t.Fatalf("readyz = %+v, want 3/3 up", ready)
	}

	// One search trips both dead shards' breakers (threshold 1). One of
	// three down: a strict majority still stands, so routing continues.
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	up, total := s.Shards.Healthy()
	if up != 1 || total != 3 {
		t.Fatalf("Healthy() = %d/%d after tripping, want 1/3", up, total)
	}
	resp := getJSON(t, srv.URL+"/readyz", &ready)
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("quorum-down readyz: status %d ready=%v, want 503 false", resp.StatusCode, ready.Ready)
	}
	downNames := map[string]bool{}
	for _, sh := range ready.Shards {
		if !sh.Up {
			downNames[sh.Name] = true
			if sh.Breaker != "open" {
				t.Errorf("down shard %s breaker = %q", sh.Name, sh.Breaker)
			}
		}
	}
	if !downNames["s0"] || !downNames["s1"] || len(downNames) != 2 {
		t.Errorf("down shards = %v, want s0 and s1", downNames)
	}
}

// /stats on a sharded server exports the dataset MBR (what remote
// coordinators scrape for pruning) and the per-shard section.
func TestShardedStatsSections(t *testing.T) {
	ds := fixtureDS(t)
	srv, _ := shardedServer(t, ds, quietShardCfg(), localShards(t, ds, 2)...)

	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	wantBounds, ok := ds.Bounds()
	if !ok {
		t.Fatal("fixture dataset has no bounds")
	}
	if st.Bounds == nil {
		t.Fatal("stats bounds section missing")
	}
	if st.Bounds.MinX != wantBounds.MinX || st.Bounds.MaxX != wantBounds.MaxX ||
		st.Bounds.MinY != wantBounds.MinY || st.Bounds.MaxY != wantBounds.MaxY {
		t.Errorf("bounds = %+v, want %+v", st.Bounds, wantBounds)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shard section = %+v, want 2 entries", st.Shards)
	}
	places := 0
	for _, info := range st.Shards {
		if info.Breaker != "closed" {
			t.Errorf("shard %s breaker = %q at rest", info.Name, info.Breaker)
		}
		places += info.Places
	}
	if places != ds.Stats().Places {
		t.Errorf("per-shard places sum to %d, want %d", places, ds.Stats().Places)
	}
}

// chaosShard wraps a healthy shard with a fault schedule that is a pure
// function of (seed, request index, shard, call number). The request
// index rides in the X-Request-ID header ("chaos-<i>"), which the server
// threads into the context every shard call receives, so the fault a
// call meets never depends on which request arrived first. Calls
// without a chaos request ID (the post-chaos probes) pass through.
type chaosShard struct {
	shard.Shard
	seed  int64
	mu    sync.Mutex
	calls map[int]int // request index → calls made (retries and hedges)
}

type chaosFault int

const (
	chaosNone     chaosFault = iota
	chaosError               // the call fails
	chaosStall               // the call answers after chaosStallFor
	chaosTruncate            // the call answers with its result tail dropped
)

const (
	chaosClients    = 6
	chaosRounds     = 10
	chaosStallFor   = 30 * time.Millisecond
	chaosKillEvery  = 10 // every 10th request fails on every shard
	chaosCleanEvery = 3  // every 3rd round is fault-free
)

// chaosSchedule assigns the fault of one shard call. Clean rounds are
// fault-free; a kill request fails every call on every shard, so it
// degrades whatever state the breakers are in; every other call draws
// from the seeded hash at the rates of a flaky network (25% error, 5%
// stall, 15% truncation).
func chaosSchedule(seed int64, req int, shardName string, call int) chaosFault {
	switch {
	case (req/chaosClients)%chaosCleanEvery == chaosCleanEvery-1:
		return chaosNone
	case req%chaosKillEvery == chaosKillEvery-1:
		return chaosError
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s/%d", seed, req, shardName, call)
	switch u := h.Sum64() % 100; {
	case u < 25:
		return chaosError
	case u < 30:
		return chaosStall
	case u < 45:
		return chaosTruncate
	}
	return chaosNone
}

func (c *chaosShard) Search(ctx context.Context, req shard.Request) (*shard.Response, error) {
	tag, ok := strings.CutPrefix(obs.RequestIDFromContext(ctx), "chaos-")
	idx, err := strconv.Atoi(tag)
	if !ok || err != nil {
		return c.Shard.Search(ctx, req)
	}
	c.mu.Lock()
	call := c.calls[idx]
	c.calls[idx]++
	c.mu.Unlock()
	switch chaosSchedule(c.seed, idx, c.Name(), call) {
	case chaosError:
		return nil, errors.New("injected shard failure")
	case chaosStall:
		t := time.NewTimer(chaosStallFor)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case chaosTruncate:
		// Drop the tail half: the first dropped score floors every
		// dropped (and, results being sorted, every unseen) place.
		resp, err := c.Shard.Search(ctx, req)
		if err != nil || len(resp.Results) == 0 {
			return resp, err
		}
		n := len(resp.Results) / 2
		bound := resp.Results[n].Score
		if resp.Partial && resp.Bound < bound {
			bound = resp.Bound
		}
		resp.Results, resp.Partial, resp.Bound = resp.Results[:n], true, bound
		return resp, nil
	}
	return c.Shard.Search(ctx, req)
}

// The shard chaos hammer: waves of concurrent sharded searches while
// the chaos schedule fails, stalls, and truncates shard calls — shards
// effectively dying and reviving mid-run via breaker trips and short
// cooldowns. Every request must resolve to a well-formed outcome (200
// exact, 200 sound partial, or a degraded 503) whose "degraded" field
// matches it, and the package leak check must stay clean. The companion
// to TestHammerSearchChaos, one layer up.
//
// The run is deterministic in what it asserts: a kill request in a chaos
// round is a guaranteed 503, and each clean round starts after every
// breaker has cooled down with one request alone — the half-open probe —
// which is a guaranteed exact answer. Breaker interleaving inside a
// chaos round can only move requests between the exact and degraded
// counts.
func TestHammerShardChaos(t *testing.T) {
	ds := fixtureDS(t)
	cfg := quietShardCfg()
	cfg.AttemptTimeout = 250 * time.Millisecond
	cfg.MaxAttempts = 2
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	cfg.HedgeAfter = 10 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 20 * time.Millisecond // revive quickly mid-run
	var members []shard.Shard
	for _, m := range localShards(t, ds, 2) {
		members = append(members, &chaosShard{Shard: m, seed: 4242, calls: map[int]int{}})
	}
	srv, s := shardedServer(t, ds, cfg, members...)
	s.AdmitCapacity = 64 // wide open: the hammer targets the coordinator, not admission

	var okExact, okPartial, degraded503, other int64
	var mu sync.Mutex
	search := func(i int) {
		url := fmt.Sprintf("%s/search?x=%d&y=%d&kw=roman,history&k=2", srv.URL, (i%chaosClients)%7, (i/chaosClients)%7)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("X-Request-ID", fmt.Sprintf("chaos-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("request %d failed: %v", i, err)
			return
		}
		// 200 and 503 bodies share the string-typed "degraded" key, so
		// both decode into SearchResponse.
		var got SearchResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Errorf("request %d: decode: %v", i, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case resp.StatusCode == http.StatusOK && !got.Partial:
			okExact++
			if got.Degraded != "" {
				t.Errorf("request %d: exact answer flagged degraded=%q", i, got.Degraded)
			}
		case resp.StatusCode == http.StatusOK:
			okPartial++
			if got.Degraded != DegradedShardLoss {
				t.Errorf("request %d: partial answer degraded=%q, want %q", i, got.Degraded, DegradedShardLoss)
			}
			// Soundness invariant: a result flagged exact must provably
			// beat the floor. (A zero floor is legitimate — a truncated
			// shard whose dropped result scored 0 — it just proves
			// nothing exact.)
			for _, res := range got.Results {
				if res.Exact && res.Score >= got.ScoreLowerBound {
					t.Errorf("request %d: exact result at score %v does not beat floor %v", i, res.Score, got.ScoreLowerBound)
				}
			}
		case resp.StatusCode == http.StatusServiceUnavailable:
			degraded503++
			if got.Degraded != DegradedAllShardsFailed && got.Degraded != DegradedGatherTimeout {
				t.Errorf("request %d: 503 degraded=%q", i, got.Degraded)
			}
		default:
			other++
			t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	for r := 0; r < chaosRounds; r++ {
		first := r * chaosClients
		if r%chaosCleanEvery == chaosCleanEvery-1 {
			// Every breaker the chaos rounds opened has cooled down once
			// this sleep ends; the lone first request is the half-open
			// probe that closes them.
			time.Sleep(cfg.BreakerCooldown + 5*time.Millisecond)
			search(first)
			first++
		}
		var wg sync.WaitGroup
		for i := first; i < (r+1)*chaosClients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				search(i)
			}(i)
		}
		wg.Wait()
	}

	if okExact == 0 {
		t.Fatalf("no request fully succeeded (exact=%d partial=%d 503=%d other=%d)",
			okExact, okPartial, degraded503, other)
	}
	if okPartial+degraded503 == 0 {
		t.Fatal("chaos schedule never degraded a request; the hammer is not hammering")
	}

	// Once the chaos ends the breakers must recover: the cooldown admits
	// a probe, the probe succeeds, and answers return to exact with every
	// shard answering (a θ-pruned shard would leave its breaker as it
	// was).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got SearchResponse
		resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
		if resp.StatusCode == http.StatusOK && !got.Partial && len(got.Results) == 2 && allShardsOK(got.Shards) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards did not recover post-chaos: status %d partial=%v shards=%+v", resp.StatusCode, got.Partial, got.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
	up, total := s.Shards.Healthy()
	if up != total {
		t.Errorf("post-chaos Healthy() = %d/%d", up, total)
	}
}

func allShardsOK(sts []shard.Status) bool {
	for _, st := range sts {
		if st.State != shard.StateOK {
			return false
		}
	}
	return true
}
