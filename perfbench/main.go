// Command perfbench is the repository's serving benchmark. It runs one
// named workload against a live internal/server over loopback HTTP,
// checks every answer against an in-process oracle, and prints the
// workload's metrics, each with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer metrics and writes its spans as JSON.
// Workload parameters live in workloads.json. Run it from the
// repository root through run.sh:
//
//	bash perfbench/run.sh --workload yago_sp --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ksp"
	"ksp/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out holds the run's scratch files and the traced run's spans.
	out string
	// scale, pool and setupReps override the workload's values when
	// positive (the smoke tests run tiny instances).
	scale, pool, setupReps int
	// corruptOracle perturbs one reference answer, so a test can show
	// that a wrong answer is caught.
	corruptOracle bool
	// shed answers two requests in three with 429 before the server sees
	// them, so a test can show that a run which sheds most of its load
	// still prints a finite value for every metric.
	shed bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload name (see workloads.json)")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed: graph, query pool, draws and arrivals derive from it")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&opts.out, "out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()
	opts.trace = traceFlag == 1
	if opts.workload == "" || opts.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: answers differ from the oracle")
		os.Exit(1)
	}
}

// run executes one workload and returns its result; human-readable
// lines go to log.
func run(opts options, logTo io.Writer) (_ *result, err error) {
	// Human-readable lines are buffered; bufio keeps the first write
	// error, which the deferred Flush reports.
	log := bufio.NewWriter(logTo)
	defer func() {
		if ferr := log.Flush(); err == nil {
			err = ferr
		}
	}()
	w, err := loadWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	if opts.scale > 0 {
		w.Scale = opts.scale
	}
	if opts.pool > 0 {
		w.Pool = opts.pool
	}
	if opts.setupReps > 0 {
		w.SetupReps = opts.setupReps
	}
	algo, err := parseAlgo(w.Algo)
	if err != nil {
		return nil, err
	}
	oracleAlgo, err := parseAlgo(w.OracleAlgo)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.out, "work-")
	if err != nil {
		return nil, err
	}
	//ksplint:ignore droppederr -- scratch cleanup; a leftover under the output directory is harmless
	defer os.RemoveAll(dir)

	began := time.Now()
	var phases []string
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.1fs", name, time.Since(began).Seconds()))
		began = time.Now()
	}
	measured := time.Duration(opts.seconds * float64(time.Second))
	closedDur := time.Duration(float64(measured) * closedShare)
	openDur := measured - closedDur
	in, err := makeInputs(w, opts.seed, dir, openDur.Seconds(), opts.trace)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "workload %s seed %d: %s-like graph, %d vertices, pool %d, fingerprint %s\n",
		w.Name, opts.seed, w.Dataset, in.graph.NumVertices(), len(in.pool), in.fingerprint)
	if !opts.trace {
		in.graph = nil // only the traced run's own engine needs it
	}
	phase("inputs")

	// Set-up, repeated; the last instance serves.
	var setupS, heapMB []float64
	var ds *ksp.Dataset
	var srv *server.Server
	for i := 0; i < w.SetupReps; i++ {
		if ds != nil {
			if err := ds.Close(); err != nil {
				return nil, err
			}
			ds, srv = nil, nil
		}
		var secs, mb float64
		ds, srv, secs, mb, err = setup(w, in)
		if err != nil {
			return nil, err
		}
		setupS, heapMB = append(setupS, secs), append(heapMB, mb)
	}
	//ksplint:ignore droppederr -- read-only dataset; the run's result is already decided
	defer ds.Close()
	phase("set-up")

	// The oracle: an independent path (another algorithm, in-process, on
	// a dataset with the looseness cache off and held in memory).
	oracleDS := ds
	if w.CacheEntries != 0 || w.Serving == "snapshot_mmap" {
		if oracleDS, err = ksp.LoadSnapshot(in.snapPath, ksp.DefaultConfig()); err != nil {
			return nil, err
		}
	}
	or, err := buildOracle(oracleDS, oracleAlgo, w, in)
	if err != nil {
		return nil, err
	}
	if opts.corruptOracle {
		or.search[0] = append([]answer{{Place: math.MaxUint32, Score: -1}}, or.search[0]...)
	}

	phase("oracle")

	spans := newSpanLog()
	var handler http.Handler = srv
	if opts.trace {
		handler = spans.wrap(srv)
	}
	if opts.shed {
		handler = shedding(handler)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	clients := runtime.NumCPU()
	r := newRunner(w, in, ts.URL, ds, or, clients)
	defer r.close()

	total := r.warmup()
	phase("warm-up")
	res := &result{Metrics: make(map[string]metricValue)}
	put := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	// note keeps a layer reading that is printed but not a metric of the
	// result: one that reads 0 on some workload, where a relative
	// comparison means nothing.
	type noted struct {
		name, unit string
		v          float64
	}
	var notes []noted
	note := func(name, unit string, v float64) { notes = append(notes, noted{name, unit, v}) }

	if !opts.trace {
		// The phases alternate in rounds, so each metric samples the
		// whole run rather than one stretch of it; the medians over
		// chunks and rounds keep a passing stall of the shared host from
		// setting a figure.
		rounds := max(1, int(math.Round(opts.seconds/roundSeconds)))
		window := openDur / time.Duration(rounds)
		closed, open := &tally{}, &tally{}
		var rates, p50s, openP50s []float64
		for i := 0; i < rounds; i++ {
			c, rs, ps := r.closedLoop(closedDur / time.Duration(rounds))
			o := r.openLoop(arrivalsIn(in.arrivals, time.Duration(i)*window, window))
			closed.merge(c)
			open.merge(o)
			rates, p50s = append(rates, rs...), append(p50s, ps...)
			if lat := okLat(o.done); len(lat) > 0 {
				openP50s = append(openP50s, quantile(lat, 0.5))
			}
		}
		total.merge(closed)
		total.merge(open)
		qps := median(rates)
		put("setup_s", median(setupS))
		put("qps", qps)
		put("p50_ms", median(p50s))
		put("p99_ms", quantile(okLat(closed.done), 0.99))
		put("open_p50_ms", median(openP50s))
		put("heap_mb", median(heapMB))
		fmt.Fprintf(log, "%-12s %10.4f %-5s (n=%d set-ups)\n", "setup_s", res.Metrics["setup_s"].Value, "s", len(setupS))
		fmt.Fprintf(log, "%-12s %10.4f %-5s (median of %d chunk rates; n=%d closed-loop requests, %d clients, %d rounds)\n",
			"qps", qps, "1/s", len(rates), closed.attempted, clients, rounds)
		fmt.Fprintf(log, "%-12s %10.4f %-5s (median of %d chunk medians; n=%d closed-loop requests)\n",
			"p50_ms", res.Metrics["p50_ms"].Value, "ms", len(p50s), closed.ok)
		fmt.Fprintf(log, "%-12s %10.4f %-5s (n=%d closed-loop requests)\n", "p99_ms", res.Metrics["p99_ms"].Value, "ms", closed.ok)
		fmt.Fprintf(log, "%-12s %10.4f %-5s (median of %d round medians; n=%d open-loop requests at %.0f/s; generator late p50 %.0f us, p99 %.0f us)\n",
			"open_p50_ms", res.Metrics["open_p50_ms"].Value, "ms", len(openP50s), open.attempted, w.OpenQPS, quantile(open.late, 0.5), quantile(open.late, 0.99))
		fmt.Fprintf(log, "%-12s %10.4f %-5s (n=%d set-ups)\n", "heap_mb", res.Metrics["heap_mb"].Value, "MB", len(heapMB))
	} else {
		gc0 := gcCPU()
		untraced, ratesU, _ := r.closedLoop(closedDur / 2)
		r.spans = spans
		traced, ratesT, _ := r.closedLoop(closedDur - closedDur/2)
		r.spans = nil
		gc1 := gcCPU()
		total.merge(untraced)
		total.merge(traced)

		complete := spans.finish()
		selfUS, transportUS, respBytes := spans.serverMetrics(complete)
		put("server.self_us", selfUS)
		put("server.transport_us", transportUS)
		put("server.resp_bytes", respBytes)
		flights, err := r.sharedFlights(ts.URL)
		if err != nil {
			return nil, err
		}
		note("server.coalesced_ratio", "ratio", ratio(flights, float64(total.searches)))
		put("trace.qps_ratio", ratio(median(ratesT), median(ratesU)))
		put("runtime.gc_cpu_fraction", ratio(gc1[0]-gc0[0], gc1[1]-gc0[1]))
		if err := spans.write(filepath.Join(opts.out, "spans-"+w.Name+".json")); err != nil {
			return nil, err
		}
		if err := measureLayers(w, algo, in, ds, dir, put, note); err != nil {
			return nil, err
		}
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(log, "%-26s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
		for _, n := range notes {
			fmt.Fprintf(log, "%-26s %14.4f %s (printed only: 0 by construction or by chance on some workload)\n", n.name, n.v, n.unit)
		}
		fmt.Fprintf(log, "spans: %d traced requests (n=%d complete /search) written to %s\n",
			traced.attempted, len(complete), filepath.Join(opts.out, "spans-"+w.Name+".json"))
	}

	phase("measured")
	fmt.Fprintf(log, "phases: %s\n", strings.Join(phases, ", "))
	res.Attempted, res.Failed = total.attempted, total.failed()
	res.Correct = total.mismatches == 0
	fmt.Fprintf(log, "%-12s %10.4f %-5s (%d failed of %d attempted: %d shed, %d errors, %d oracle mismatches)\n",
		"fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted, total.shed, total.errors, total.mismatches)
	return res, nil
}

// setup opens the input file on disk as a dataset and builds the server
// over it, mirroring kspserver's defaults: serial evaluation, adaptive
// window, admission at 2×GOMAXPROCS, slow-query log at 500ms. It
// reports the elapsed seconds and the live heap the set-up added, read
// after a GC.
func setup(w workload, in *inputs) (*ksp.Dataset, *server.Server, float64, float64, error) {
	before := liveHeap()
	t0 := time.Now()
	ds, err := openDataset(w, in, w.CacheEntries)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	srv := server.New(ds)
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv.EnableSlowLog(64, 500*time.Millisecond)
	secs := time.Since(t0).Seconds()
	mb := float64(liveHeap()-before) / 1e6
	return ds, srv, secs, mb, nil
}

// openDataset opens the workload's input the way its serving mode does.
func openDataset(w workload, in *inputs, cacheEntries int) (*ksp.Dataset, error) {
	cfg := ksp.DefaultConfig()
	cfg.AlphaRadius = w.Alpha
	cfg.LoosenessCacheEntries = cacheEntries
	switch w.Serving {
	case "ntriples":
		return ksp.OpenFile(in.ntPath, cfg)
	case "snapshot":
		return ksp.LoadSnapshot(in.snapPath, cfg)
	case "snapshot_mmap":
		cfg.Mmap = true
		return ksp.LoadSnapshotDisk(in.snapPath, cfg)
	}
	return nil, fmt.Errorf("unknown serving mode %q", w.Serving)
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// gcCPU returns the cumulative GC CPU seconds and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// shedding answers two requests in three with 429, as an overloaded
// server's admission control would, and passes the rest (and /stats) to
// next.
func shedding(next http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" && n.Add(1)%3 != 0 {
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func parseAlgo(s string) (ksp.Algorithm, error) {
	for _, a := range []ksp.Algorithm{ksp.AlgoBSP, ksp.AlgoSPP, ksp.AlgoSP, ksp.AlgoTA} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, errors.New("unknown algorithm " + s)
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "?"
}

// quantile returns the q-quantile of xs by the nearest-rank method; xs
// is sorted in place. It is 0 when xs is empty, as when no request of a
// phase succeeded: the failed count carries that.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs, 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
