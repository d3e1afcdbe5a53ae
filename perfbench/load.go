package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ksp"
)

// answer is one (place, score) pair of a reference or served answer.
type answer struct {
	Place uint32  `json:"place"`
	Score float64 `json:"score"`
}

// oracle holds the reference answer of every distinct request.
type oracle struct {
	search   [][]answer // per pool index
	describe [][]string // per vertex; nil when the workload sends no /describe
}

// buildOracle answers every pool query in-process with algo on ds (a
// dataset with the looseness cache off), and, for workloads that send
// /describe, every vertex's document. It uses one goroutine per CPU.
func buildOracle(ds *ksp.Dataset, algo ksp.Algorithm, w workload, in *inputs) (*oracle, error) {
	or := &oracle{search: make([][]answer, len(in.pool))}
	if w.DescribeEvery > 0 {
		or.describe = make([][]string, ds.Stats().Vertices)
		for v := range or.describe {
			or.describe[v] = ds.Describe(uint32(v))
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, runtime.NumCPU())
	)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.pool) {
					return
				}
				q := in.pool[i]
				res, _, err := ds.SearchWith(algo, ksp.Query{Loc: ksp.Point{X: q.X, Y: q.Y}, Keywords: q.Keywords, K: w.K}, ksp.Options{})
				if err != nil {
					errs[c] = fmt.Errorf("oracle query %d: %w", i, err)
					return
				}
				ref := make([]answer, len(res))
				for j, r := range res {
					ref[j] = answer{Place: r.Place, Score: r.Score}
				}
				or.search[i] = ref
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return or, nil
}

// outcome is what one request produced.
type outcome struct {
	search bool
	status int
	// ok: status 200 and the body equals the oracle's answer.
	ok       bool
	mismatch bool
}

// tally aggregates the outcomes of one phase.
type tally struct {
	attempted, ok, shed, errors, mismatches int
	searches                                int
	// done holds every attempted request. Latency figures are taken over
	// the requests that succeeded; failures show only in the counters
	// above, so a figure stays finite however many requests fail.
	done []done
	// late holds the open-loop generator's lateness in microseconds.
	late []float64
}

// done is one attempted request: when it completed, its latency in
// milliseconds, and whether it succeeded.
type done struct {
	at time.Time
	ms float64
	ok bool
}

func (t *tally) add(o outcome, lat time.Duration) {
	t.attempted++
	if o.search {
		t.searches++
	}
	switch {
	case o.ok:
		t.ok++
	case o.mismatch:
		t.mismatches++
	case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
		t.shed++
	default:
		t.errors++
	}
	t.done = append(t.done, done{at: time.Now(), ms: float64(lat.Nanoseconds()) / 1e6, ok: o.ok})
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.shed += o.shed
	t.errors += o.errors
	t.mismatches += o.mismatches
	t.searches += o.searches
	t.done = append(t.done, o.done...)
	t.late = append(t.late, o.late...)
}

func (t *tally) failed() int { return t.attempted - t.ok }

// okLat returns the latencies, in milliseconds, of the requests in ds
// that succeeded.
func okLat(ds []done) []float64 {
	lat := make([]float64, 0, len(ds))
	for _, d := range ds {
		if d.ok {
			lat = append(lat, d.ms)
		}
	}
	return lat
}

// runner drives one live server.
type runner struct {
	w           workload
	in          *inputs
	client      *http.Client
	searchURL   []string
	describeURL []string
	oracle      *oracle
	clients     int
	// cursor walks the request sequence across all phases.
	cursor atomic.Int64
	// spans, when non-nil, records a client span per request and the
	// server-reported evaluation time, keyed by request ID.
	spans *spanLog
}

func newRunner(w workload, in *inputs, base string, ds *ksp.Dataset, or *oracle, clients int) *runner {
	r := &runner{
		w:      w,
		in:     in,
		oracle: or,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		clients: clients,
	}
	r.searchURL = make([]string, len(in.pool))
	for i, q := range in.pool {
		r.searchURL[i] = base + "/search?x=" + strconv.FormatFloat(q.X, 'g', -1, 64) +
			"&y=" + strconv.FormatFloat(q.Y, 'g', -1, 64) +
			"&kw=" + url.QueryEscape(strings.Join(q.Keywords, ",")) +
			"&k=" + strconv.Itoa(w.K) + "&algo=" + w.Algo
	}
	if or.describe != nil {
		r.describeURL = make([]string, len(or.describe))
		for v := range r.describeURL {
			r.describeURL[v] = base + "/describe?uri=" + url.QueryEscape(ds.URI(uint32(v)))
		}
	}
	return r
}

func (r *runner) close() { r.client.CloseIdleConnections() }

// next returns the next entry of the request sequence.
func (r *runner) next() int32 {
	i := r.cursor.Add(1) - 1
	return r.in.seq[i%int64(len(r.in.seq))]
}

type searchBody struct {
	Results []answer `json:"results"`
	Stats   struct {
		Micros int64 `json:"micros"`
	} `json:"stats"`
}

type describeBody struct {
	Terms []string `json:"terms"`
}

// do sends one request and checks its answer against the oracle.
func (r *runner) do(idx int32) outcome {
	o := outcome{search: idx >= 0}
	var u string
	if o.search {
		u = r.searchURL[idx]
	} else {
		u = r.describeURL[-idx-1]
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return o
	}
	var id string
	var t0 time.Time
	if r.spans != nil {
		id = r.spans.newID()
		req.Header.Set("X-Request-ID", id)
		t0 = time.Now()
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return o
	}
	body, err := io.ReadAll(resp.Body)
	//ksplint:ignore droppederr -- the body was read to the end; the answer is the measurement
	resp.Body.Close()
	if err != nil {
		return o
	}
	if r.spans != nil {
		r.spans.add(span{ID: id + "/client", Name: "client", Start: r.spans.since(t0), End: r.spans.since(time.Now()), Bytes: len(body)})
	}
	o.status = resp.StatusCode
	if o.status != http.StatusOK {
		return o
	}
	if o.search {
		var sb searchBody
		if json.Unmarshal(body, &sb) != nil {
			o.mismatch = true
			return o
		}
		o.ok = slices.Equal(sb.Results, r.oracle.search[idx])
		if r.spans != nil {
			r.spans.noteEngine(id, sb.Stats.Micros)
		}
	} else {
		var db describeBody
		o.ok = json.Unmarshal(body, &db) == nil && slices.Equal(db.Terms, r.oracle.describe[-idx-1])
	}
	o.mismatch = !o.ok
	return o
}

// warmup sends every distinct pool query once, so lazy set-up and the
// first pass through each query are paid before timing; the answers are
// checked like any other.
func (r *runner) warmup() *tally {
	var next atomic.Int64
	return r.fanOut(func() (int32, bool) {
		i := next.Add(1) - 1
		return int32(i), i < int64(len(r.in.pool))
	})
}

// closedLoop runs r.clients clients for d, each sending its next request
// when the previous one returns. The requests, in completion order, are
// cut into one chunk per second of the phase; besides the tally it
// returns each chunk's rate of correct answers and the median latency of
// each chunk with at least one correct answer.
func (r *runner) closedLoop(d time.Duration) (t *tally, rates, p50s []float64) {
	start := time.Now()
	t = r.fanOut(func() (int32, bool) {
		return r.next(), time.Since(start) < d
	})
	sort.Slice(t.done, func(i, j int) bool { return t.done[i].at.Before(t.done[j].at) })
	chunks := min(max(1, int(d/time.Second)), len(t.done))
	if chunks == 0 {
		return t, nil, nil
	}
	size := len(t.done) / chunks
	from := start
	for c := 0; c < chunks; c++ {
		chunk := t.done[c*size : (c+1)*size]
		lat := okLat(chunk)
		to := chunk[len(chunk)-1].at
		rates = append(rates, float64(len(lat))/to.Sub(from).Seconds())
		if len(lat) > 0 {
			p50s = append(p50s, quantile(lat, 0.5))
		}
		from = to
	}
	return t, rates, p50s
}

// fanOut runs r.clients clients, each pulling work from next until it
// reports false.
func (r *runner) fanOut(next func() (int32, bool)) *tally {
	parts := make([]tally, r.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				idx, more := next()
				if !more {
					return
				}
				t0 := time.Now()
				o := r.do(idx)
				t.add(o, time.Since(t0))
			}
		}(&parts[c])
	}
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// openLoop sends requests on the seeded arrival schedule through
// r.clients clients. Each request is timed from when it was due, so a
// stall charges its wait to every request queued behind it; the tally's
// late values record how far behind schedule each request was sent.
func (r *runner) openLoop(arrivals []time.Duration) *tally {
	type job struct {
		idx int32
		due time.Time
	}
	jobs := make(chan job)
	parts := make([]tally, r.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for j := range jobs {
				t.late = append(t.late, float64(time.Since(j.due).Nanoseconds())/1e3)
				o := r.do(j.idx)
				t.add(o, time.Since(j.due))
			}
		}(&parts[c])
	}
	start := time.Now()
	for _, off := range arrivals {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{idx: r.next(), due: due}
	}
	close(jobs)
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// arrivalsIn returns the arrivals in [from, from+w), as offsets from
// from.
func arrivalsIn(all []time.Duration, from, w time.Duration) []time.Duration {
	var out []time.Duration
	for _, at := range all {
		if at >= from && at < from+w {
			out = append(out, at-from)
		}
	}
	return out
}

// sharedFlights reads the server's coalesced-request counter from /stats.
func (r *runner) sharedFlights(base string) (float64, error) {
	resp, err := r.client.Get(base + "/stats")
	if err != nil {
		return 0, err
	}
	//ksplint:ignore droppederr -- response body only read
	defer resp.Body.Close()
	var st struct {
		Server struct {
			SharedFlights uint64 `json:"sharedFlights"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decode /stats: %w", err)
	}
	return float64(st.Server.SharedFlights), nil
}
