package bench

// Open-loop load harness (ISSUE 6): sustained-throughput measurement
// against a live internal/server instance. Arrivals are open-loop —
// scheduled from a seeded exponential (Poisson-process) clock,
// independent of completions — so queueing delay shows up as latency
// instead of silently throttling the offered rate, which is the failure
// mode of closed-loop benchmarks under saturation. Offered vs. achieved
// QPS and the p50/p99/p999 latency spread are the headline numbers.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"ksp"
	"ksp/internal/server"
	"ksp/internal/shard"
)

// LoadConfig is one sustained-load cell.
type LoadConfig struct {
	// Dataset names the synthetic dataset (DBpediaLike or YagoLike).
	Dataset string `json:"dataset"`
	// QPS is the offered arrival rate (exponential inter-arrivals).
	QPS float64 `json:"qps"`
	// Duration is the arrival window; the run then drains in-flight
	// requests.
	Duration time.Duration `json:"-"`
	// Algo selects the evaluation algorithm (server ?algo= value).
	Algo string `json:"algo"`
	// K and M shape the workload queries.
	K, M int `json:"-"`
	// Window is the scheduler window directive (0 = adaptive).
	Window int `json:"window"`
	// Seed drives both the workload choice and the arrival clock.
	Seed int64 `json:"seed"`
	// Shards > 1 serves the cell through a scatter-gather coordinator
	// over that many spatial tiles of the dataset (Local shards); the
	// result then carries per-shard counters.
	Shards int `json:"shards,omitempty"`
}

// ShardLoad is one shard's share of a sharded load cell: lifetime
// counters from the coordinator snapshot plus the shard's achieved
// call rate over the cell's wall-clock window.
type ShardLoad struct {
	Name string `json:"name"`
	// AchievedQPS is successful shard calls per second of cell wall
	// time. Summed across shards it exceeds the cell's request rate
	// whenever queries fan out to more than one tile.
	AchievedQPS  float64 `json:"achievedQPS"`
	Calls        int64   `json:"calls"`
	OK           int64   `json:"ok"`
	Errors       int64   `json:"errors"`
	Retries      int64   `json:"retries"`
	Hedges       int64   `json:"hedges"`
	Breaker      string  `json:"breaker"`
	BreakerTrips int64   `json:"breakerTrips"`
}

// LoadResult is the measured outcome of one LoadConfig.
type LoadResult struct {
	Config      LoadConfig `json:"config"`
	DurationMS  int64      `json:"durationMillis"`
	OfferedQPS  float64    `json:"offeredQPS"`
	AchievedQPS float64    `json:"achievedQPS"`
	Sent        int        `json:"sent"`
	OK          int        `json:"ok"`
	// Shed counts 429/503 admission rejections; Errors everything else
	// that was not a 200.
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// Latency percentiles over successful requests, in microseconds.
	P50Micros  int64 `json:"p50Micros"`
	P90Micros  int64 `json:"p90Micros"`
	P99Micros  int64 `json:"p99Micros"`
	P999Micros int64 `json:"p999Micros"`
	MaxMicros  int64 `json:"maxMicros"`
	// Shards carries the per-shard outcome of a sharded cell
	// (Config.Shards > 1): achieved per-shard QPS, call counters, and
	// breaker trips, read from the coordinator after the run drains.
	Shards []ShardLoad `json:"shardLoads,omitempty"`
}

// loadCell runs one open-loop cell against a fresh server instance.
func (s *Suite) loadCell(cfg LoadConfig) (LoadResult, error) {
	res := LoadResult{Config: cfg, OfferedQPS: cfg.QPS}
	d := s.Data(cfg.Dataset)
	ds, err := ksp.NewDatasetFromGraph(d.g, ksp.DefaultConfig())
	if err != nil {
		return res, err
	}
	srv := server.New(ds)
	var coord *shard.Coordinator
	if cfg.Shards > 1 {
		tiles, err := ds.PartitionSpatial(cfg.Shards)
		if err != nil {
			return res, err
		}
		members := make([]shard.Shard, len(tiles))
		for i, tile := range tiles {
			members[i] = shard.NewLocal(fmt.Sprintf("tile%d", i), tile)
		}
		// Background health probes would add off-schedule work to the
		// cell; the breaker counters we report come from search calls.
		if coord, err = shard.New(members, shard.Config{HealthInterval: -1}); err != nil {
			return res, err
		}
		defer coord.Close()
		srv.AttachShards(coord)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	// The workload pool: fixed queries reused round-robin, so the cell
	// measures serving capacity, not query-mix variance.
	qs := d.workload(classO, max(8, s.Queries), cfg.M, cfg.K)
	urls := make([]string, len(qs))
	for i, q := range qs {
		urls[i] = fmt.Sprintf("%s/search?x=%f&y=%f&kw=%s&k=%d&algo=%s&window=%d",
			ts.URL, q.Loc.X, q.Loc.Y, joinKeywords(q.Keywords), q.K, cfg.Algo, cfg.Window)
	}

	// Deterministic open-loop schedule: exponential gaps at rate QPS,
	// fixed before the clock starts so completions cannot perturb it.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var offsets []time.Duration
	for at := time.Duration(0); at < cfg.Duration; {
		at += time.Duration(rng.ExpFloat64() / cfg.QPS * float64(time.Second))
		if at < cfg.Duration {
			offsets = append(offsets, at)
		}
	}

	var (
		mu        sync.Mutex
		latencies []int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for i, off := range offsets {
		if wait := off - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Get(url)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.Errors++
				return
			}
			//ksplint:ignore droppederr -- load-generator cleanup; the status code is the measurement
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				res.OK++
				latencies = append(latencies, lat.Microseconds())
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				res.Shed++
			default:
				res.Errors++
			}
		}(urls[i%len(urls)])
	}
	res.Sent = len(offsets)
	wg.Wait()
	wall := time.Since(start)

	res.DurationMS = wall.Milliseconds()
	if wall > 0 {
		res.AchievedQPS = float64(res.OK) / wall.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50Micros = percentile(latencies, 0.50)
	res.P90Micros = percentile(latencies, 0.90)
	res.P99Micros = percentile(latencies, 0.99)
	res.P999Micros = percentile(latencies, 0.999)
	if n := len(latencies); n > 0 {
		res.MaxMicros = latencies[n-1]
	}
	if coord != nil {
		for _, info := range coord.Snapshot() {
			sl := ShardLoad{
				Name:         info.Name,
				Calls:        info.Calls,
				OK:           info.OK,
				Errors:       info.Errors,
				Retries:      info.Retries,
				Hedges:       info.Hedges,
				Breaker:      info.Breaker,
				BreakerTrips: info.BreakerTrips,
			}
			if wall > 0 {
				sl.AchievedQPS = float64(info.OK) / wall.Seconds()
			}
			res.Shards = append(res.Shards, sl)
		}
	}
	return res, nil
}

// percentile reads the q-quantile from an ascending-sorted slice
// (nearest-rank method; 0 on an empty slice).
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(q*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

func joinKeywords(kws []string) string {
	out := ""
	for i, k := range kws {
		if i > 0 {
			out += ","
		}
		out += k
	}
	return out
}

// LoadQPS / LoadDuration / LoadWindow tune the "load" experiment from
// kspbench flags; loadDefaults fills unset values.
func (s *Suite) loadDefaults() ([]float64, time.Duration, int) {
	qps := s.LoadQPS
	if len(qps) == 0 {
		qps = []float64{25, 50, 100}
	}
	dur := s.LoadDuration
	if dur <= 0 {
		dur = 3 * time.Second
	}
	return qps, dur, s.LoadWindow
}

// load is the "load" experiment: an offered-QPS ladder against a live
// server, one row per rate, with the machine-readable LoadResult set
// attached to the report for JSON baselines.
func (s *Suite) load() ([]*Report, error) {
	qpsLadder, dur, window := s.loadDefaults()
	title := "Open-loop sustained throughput (SPP, Yago-like)"
	if s.LoadShards > 1 {
		title = fmt.Sprintf("Open-loop sustained throughput (SPP, Yago-like, %d local shards)", s.LoadShards)
	}
	r := &Report{ID: "load", Title: title,
		Header: []string{"offered QPS", "achieved QPS", "sent", "ok", "shed", "err",
			"p50 (ms)", "p90 (ms)", "p99 (ms)", "p999 (ms)", "max (ms)"},
		Notes: []string{
			"open loop: seeded-exponential arrivals fire regardless of completions, so saturation surfaces as latency and shed, never as a quietly reduced offered rate",
			fmt.Sprintf("window %d (0 = adaptive), arrival window %v per rate", window, dur),
		}}
	if s.LoadShards > 1 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"sharded: each request scatter-gathers across %d spatial tiles; per-shard achieved QPS, call counters, and breaker trips are in the JSON cells (shardLoads)", s.LoadShards))
	}
	for i, qps := range qpsLadder {
		cell, err := s.loadCell(LoadConfig{
			Dataset:  YagoLike,
			QPS:      qps,
			Duration: dur,
			Algo:     "SPP",
			K:        defaultK,
			M:        defaultM,
			Window:   window,
			Seed:     s.Seed + int64(100+i),
			Shards:   s.LoadShards,
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(
			fmt.Sprintf("%.1f", cell.OfferedQPS),
			fmt.Sprintf("%.1f", cell.AchievedQPS),
			fmt.Sprint(cell.Sent), fmt.Sprint(cell.OK),
			fmt.Sprint(cell.Shed), fmt.Sprint(cell.Errors),
			usMS(cell.P50Micros), usMS(cell.P90Micros),
			usMS(cell.P99Micros), usMS(cell.P999Micros), usMS(cell.MaxMicros),
		)
		r.Load = append(r.Load, cell)
	}
	return []*Report{r}, nil
}

func usMS(us int64) string { return fmt.Sprintf("%.3f", float64(us)/1e3) }
