package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloadsJSON is the benchmark's configuration record: every
// workload's parameters, the reference host, and which end-to-end metric
// each per-layer metric is predicted to move.
//
//go:embed workloads.json
var workloadsJSON []byte

// workload is one named traffic mix against one served dataset.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Dataset is the synthetic graph shape: "yago" or "dbpedia".
	Dataset string `json:"dataset"`
	Scale   int    `json:"scale"`
	// Serving is how the server's dataset is set up: "ntriples"
	// (ksp.OpenFile), "snapshot" (ksp.LoadSnapshot) or "snapshot_mmap"
	// (ksp.LoadSnapshotDisk with Mmap).
	Serving   string `json:"serving"`
	SetupReps int    `json:"setup_reps"`
	Algo      string `json:"algo"`
	// OracleAlgo answers every pool query in-process on a dataset with
	// the looseness cache off, giving the reference each HTTP answer is
	// compared with.
	OracleAlgo   string `json:"oracle_algo"`
	Alpha        int    `json:"alpha"`
	CacheEntries int    `json:"cache_entries"`
	K            int    `json:"k"`
	M            int    `json:"m"`
	Pool         int    `json:"pool"`
	// ZipfS > 1 draws pool queries Zipf-skewed; 0 draws them uniformly.
	ZipfS float64 `json:"zipf_s"`
	// DescribeEvery > 0 makes one request in DescribeEvery a /describe
	// of a uniformly drawn vertex.
	DescribeEvery int `json:"describe_every"`
	// OpenQPS is the open-loop arrival rate.
	OpenQPS float64 `json:"open_qps"`
}

// closedShare is the part of the measured seconds spent in the closed
// loop; the rest is the open loop. The two alternate in rounds of about
// roundSeconds.
const (
	closedShare  = 0.6
	roundSeconds = 5
)

type benchConfig struct {
	Workloads []workload `json:"workloads"`
}

func loadWorkload(name string) (workload, error) {
	var cfg benchConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return workload{}, fmt.Errorf("parse workloads.json: %w", err)
	}
	for _, w := range cfg.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric names the benchmark prints, with their units. The end-to-end
// set is printed by untraced runs, the per-layer set by traced runs.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"open_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"server.self_us", "us"},
	{"server.transport_us", "us"},
	{"server.resp_bytes", "bytes"},
	{"shard.n1_overhead_us", "us"},
	{"core.query_us", "us"},
	{"core.semantic_us", "us"},
	{"core.other_us", "us"},
	{"core.tqsp_per_q", "count"},
	{"core.bfs_visits_per_q", "count"},
	{"core.places_per_q", "count"},
	{"core.window_kill_ratio", "ratio"},
	{"core.tqsp_yield", "ratio"},
	{"core.rule2_pruned_per_q", "count"},
	{"core.allocs_per_q", "count"},
	{"core.bytes_per_q", "bytes"},
	{"alpha.load_query_us", "us"},
	{"alpha.place_bound_ns", "ns"},
	{"alpha.build_s", "s"},
	{"reach.can_reach_ns", "ns"},
	{"reach.probes_per_q", "count"},
	{"rtree.next_ns", "ns"},
	{"rtree.nodes_per_q", "count"},
	{"rdf.bfs_ns_per_visit", "ns"},
	{"invindex.resolve_us", "us"},
	{"store.open_s", "s"},
	{"store.save_s", "s"},
	{"store.describe_us", "us"},
	{"nt.parse_s", "s"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.qps_ratio", "ratio"},
}
