package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload so each smoke run takes a second or two.
func tiny(t *testing.T, name string, trace bool) options {
	return options{
		workload:  name,
		seed:      7,
		seconds:   0.5,
		trace:     trace,
		out:       t.TempDir(),
		scale:     1500,
		pool:      12,
		setupReps: 2,
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeEveryWorkload runs each workload of workloads.json at tiny
// scale, untraced and traced, and checks that every answer matched the
// oracle and that every metric BENCHMARK.json names is printed with its
// unit, both in the JSON result and in the human-readable lines.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	var cfg benchConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		if _, err := loadWorkload(wl.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", wl.Name, err)
		}
	}
	for _, wl := range cfg.Workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := run(tiny(t, wl.Name, trace), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl.Name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !strings.Contains(log.String(), m.Name):
					t.Errorf("%s trace=%v: metric %s not in the printed lines", wl.Name, trace, m.Name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", wl.Name, trace, err)
			}
		}
	}
}

// TestCorruptedReferenceIsCaught perturbs one reference answer: the
// request that returns it must count as failed and the run as incorrect.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	opts := tiny(t, "dbpedia_disk", false)
	opts.corruptOracle = true
	res, err := run(opts, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestInputsDeriveFromSeed checks that the same seed reproduces the same
// inputs and another seed does not.
func TestInputsDeriveFromSeed(t *testing.T) {
	w, err := loadWorkload("yago_spp_hot")
	if err != nil {
		t.Fatal(err)
	}
	w.Scale, w.Pool = 1500, 12
	fp := func(seed int64) string {
		in, err := makeInputs(w, seed, t.TempDir(), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint
	}
	a, b, c := fp(3), fp(3), fp(4)
	if a != b {
		t.Errorf("seed 3 gave fingerprints %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same fingerprint %s", a)
	}
}

// TestServerMetrics checks the self times of the client ⊃ server ⊃
// engine chain: each is the span's length minus its child's, and an
// engine time longer than ServeHTTP is clipped to it.
func TestServerMetrics(t *testing.T) {
	l := newSpanLog()
	l.add(span{ID: "q1/client", Name: "client", Start: 0, End: 10000, Bytes: 300})
	l.add(span{ID: "q1/server", Parent: "q1/client", Name: "server", Start: 2000, End: 9000})
	l.noteEngine("q1", 4) // 4 us of the server's 7 us
	self, transport, bytes := l.serverMetrics(l.finish())
	if self != 3 || transport != 3 || bytes != 300 {
		t.Errorf("self %v us, transport %v us, bytes %v; want 3, 3, 300", self, transport, bytes)
	}
	if got := selfTime(span{Start: 0, End: 100}, span{Start: 50, End: 250}); got != 0 {
		t.Errorf("self time under an overrunning child = %d, want 0", got)
	}
}

// TestSheddingKeepsMetricsFinite sheds two requests in three with 429:
// more than half of every phase fails, yet the run still prints a
// finite value for every metric, counts the shed requests as failed and
// stays correct, since a shed request is no wrong answer.
func TestSheddingKeepsMetricsFinite(t *testing.T) {
	for _, trace := range []bool{false, true} {
		opts := tiny(t, "yago_sp", trace)
		opts.shed = true
		res, err := run(opts, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || 2*res.Failed <= res.Attempted {
			t.Errorf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace=%v: %s = %v", trace, name, m.Value)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("trace=%v: result does not encode: %v", trace, err)
		}
	}
}
