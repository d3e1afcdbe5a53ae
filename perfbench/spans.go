package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of one request. Spans of a request share
// the request ID as their ID prefix ("<id>/client", "<id>/server",
// "<id>/engine"); Parent names the enclosing span.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the log's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Bytes is the response body size (client spans of /search).
	Bytes int `json:"bytes,omitempty"`
}

// spanLog keeps a traced run's spans in memory; write dumps them as JSON
// when the run ends. The benchmark records spans only around its own
// calls: the client round trip, the server's ServeHTTP, and the engine
// evaluation time the /search response reports in stats.micros.
type spanLog struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	// engine holds, per request ID, the server-reported evaluation time
	// in microseconds; finish turns them into engine spans.
	engine map[string]int64
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), engine: make(map[string]int64)}
}

func (l *spanLog) newID() string { return "q" + strconv.FormatInt(l.ids.Add(1), 10) }

func (l *spanLog) since(t time.Time) int64 { return t.Sub(l.epoch).Nanoseconds() }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) noteEngine(id string, micros int64) {
	l.mu.Lock()
	l.engine[id] = micros
	l.mu.Unlock()
}

// wrap returns a handler that records a server span around next's
// ServeHTTP, parented to the client span of the same request ID.
func (l *spanLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if id != "" {
			l.add(span{ID: id + "/server", Parent: id + "/client", Name: "server", Start: l.since(t0), End: l.since(time.Now())})
		}
	})
}

// finish gives each /search server span an engine child whose length
// is the reported evaluation time, placed at the server span's start and
// clipped to it. It returns the requests
// that have a client, a server and an engine span.
func (l *spanLog) finish() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	byID := make(map[string]int, len(l.spans))
	for i, s := range l.spans {
		byID[s.ID] = i
	}
	var complete []string
	for id, micros := range l.engine {
		si, ok := byID[id+"/server"]
		if _, client := byID[id+"/client"]; !ok || !client {
			continue
		}
		srv := l.spans[si]
		end := min(srv.Start+micros*1000, srv.End)
		l.spans = append(l.spans, span{ID: id + "/engine", Parent: id + "/server", Name: "engine", Start: srv.Start, End: end})
		complete = append(complete, id)
	}
	sort.Strings(complete)
	return complete
}

// dur is the span's length in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the parent's length minus the time its only child covers,
// the child clipped to the parent. The spans of a request form a fixed
// chain, client ⊃ server ⊃ engine, one child each.
func selfTime(parent, child span) int64 {
	return parent.dur() - min(child.dur(), parent.dur())
}

// serverMetrics computes, over the complete /search requests, the p50
// self time of the server span (ServeHTTP minus the engine evaluation),
// the p50 self time of the client span (round trip minus ServeHTTP) and
// the mean response size.
func (l *spanLog) serverMetrics(complete []string) (selfUS, transportUS, respBytes float64) {
	if len(complete) == 0 {
		return 0, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	byID := make(map[string]span, len(l.spans))
	for _, s := range l.spans {
		byID[s.ID] = s
	}
	var srv, cli []float64
	var bytes float64
	for _, id := range complete {
		c, s, e := byID[id+"/client"], byID[id+"/server"], byID[id+"/engine"]
		srv = append(srv, float64(selfTime(s, e))/1e3)
		cli = append(cli, float64(selfTime(c, s))/1e3)
		bytes += float64(c.Bytes)
	}
	return quantile(srv, 0.5), quantile(cli, 0.5), bytes / float64(len(complete))
}

// write dumps every span as JSON to path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the encode error already wins
		f.Close()
		return err
	}
	return f.Close()
}
