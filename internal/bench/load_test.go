package bench

import (
	"bytes"
	"testing"
	"time"
)

// TestLoadSmoke is the CI latency gate: a short open-loop run at a
// modest offered rate must complete with successful requests, accounted
// outcomes, and a tail latency under a deliberately generous ceiling.
// The ceiling catches scheduler regressions that park requests (lost
// wakeups, deque deadlocks surfacing as multi-second stalls), not
// ordinary jitter on a busy CI host.
func TestLoadSmoke(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1500, 4, 99, &buf)
	cell, err := s.loadCell(LoadConfig{
		Dataset:  YagoLike,
		QPS:      40,
		Duration: 1500 * time.Millisecond,
		Algo:     "SPP",
		K:        defaultK,
		M:        defaultM,
		Window:   0,
		Seed:     99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Sent == 0 {
		t.Fatal("open-loop schedule produced no arrivals")
	}
	if cell.OK == 0 {
		t.Fatalf("no request succeeded: %+v", cell)
	}
	if got := cell.OK + cell.Shed + cell.Errors; got != cell.Sent {
		t.Errorf("outcomes %d do not account for %d sent", got, cell.Sent)
	}
	if cell.Errors > 0 {
		t.Errorf("%d requests failed outside admission shedding", cell.Errors)
	}
	if cell.AchievedQPS <= 0 {
		t.Errorf("achieved QPS = %v", cell.AchievedQPS)
	}
	// Generous by design: a healthy run at this scale answers in
	// single-digit milliseconds; only a stalled pipeline approaches this.
	const p99Ceiling = 5 * time.Second
	if p99 := time.Duration(cell.P99Micros) * time.Microsecond; p99 > p99Ceiling {
		t.Errorf("p99 latency %v exceeds smoke ceiling %v", p99, p99Ceiling)
	}
	if cell.P50Micros > cell.P99Micros || cell.P99Micros > cell.P999Micros || cell.P999Micros > cell.MaxMicros {
		t.Errorf("quantiles not monotone: p50=%d p99=%d p999=%d max=%d",
			cell.P50Micros, cell.P99Micros, cell.P999Micros, cell.MaxMicros)
	}
}

// A sharded load cell carries per-shard counters that account for the
// cell's successful requests: every 200 involved at least one
// successful shard call, no shard saw errors, and no breaker tripped
// on a healthy run.
func TestLoadShardedSmoke(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1500, 4, 99, &buf)
	cell, err := s.loadCell(LoadConfig{
		Dataset:  YagoLike,
		QPS:      30,
		Duration: 1200 * time.Millisecond,
		Algo:     "SPP",
		K:        defaultK,
		M:        defaultM,
		Seed:     99,
		Shards:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell.OK == 0 {
		t.Fatalf("no request succeeded: %+v", cell)
	}
	if len(cell.Shards) != 3 {
		t.Fatalf("got %d shard cells, want 3: %+v", len(cell.Shards), cell.Shards)
	}
	var okCalls int64
	names := map[string]bool{}
	for _, sl := range cell.Shards {
		if names[sl.Name] {
			t.Errorf("duplicate shard cell %q", sl.Name)
		}
		names[sl.Name] = true
		okCalls += sl.OK
		if sl.Errors > 0 || sl.BreakerTrips > 0 || sl.Breaker != "closed" {
			t.Errorf("shard %s unhealthy on a fault-free run: %+v", sl.Name, sl)
		}
		if sl.OK > 0 && sl.AchievedQPS <= 0 {
			t.Errorf("shard %s: %d ok calls but achieved QPS %v", sl.Name, sl.OK, sl.AchievedQPS)
		}
	}
	if okCalls < int64(cell.OK) {
		t.Errorf("shards answered %d calls for %d successful requests", okCalls, cell.OK)
	}
}

// The load experiment's report must mirror its machine-readable cells.
func TestLoadReportCarriesCells(t *testing.T) {
	s := smallSuite(t)
	reports, err := s.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if len(r.Load) != len(r.Rows) {
		t.Errorf("%d LoadResult cells for %d rows", len(r.Load), len(r.Rows))
	}
	for i, cell := range r.Load {
		if cell.Config.Seed == 0 {
			t.Errorf("cell %d: zero seed recorded", i)
		}
		if cell.OfferedQPS != s.LoadQPS[i] {
			t.Errorf("cell %d: offered %v, want %v", i, cell.OfferedQPS, s.LoadQPS[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.99); p != 0 {
		t.Errorf("empty percentile = %d", p)
	}
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 50}, {0.90, 90}, {0.99, 100}, {0.999, 100}, {0.0, 10}, {1.0, 100},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%.3f) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.5); got != 7 {
		t.Errorf("singleton percentile = %d", got)
	}
}
