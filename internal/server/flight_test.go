package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ksp"
	"ksp/internal/core"
	"ksp/internal/faultinject"
)

// flightKey must be insensitive to keyword order and spacing, and
// sensitive to every knob that changes what the engine computes.
func TestFlightKeyNormalization(t *testing.T) {
	base := flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 0, 0)
	same := []string{
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"history", "roman"}, 5, false, 0, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{" roman ", "", "history"}, 5, false, 0, 0),
	}
	for i, k := range same {
		if k != base {
			t.Errorf("variant %d got a different key:\n%q\n%q", i, k, base)
		}
	}
	diff := []string{
		flightKey(ksp.AlgoBSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 0, 0),
		flightKey(ksp.AlgoSP, 1.26, -3.5, []string{"roman", "history"}, 5, false, 0, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman"}, 5, false, 0, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 6, false, 0, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, true, 0, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 8, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 0, 2.5),
	}
	for i, k := range diff {
		if k == base {
			t.Errorf("variant %d should not share the base key %q", i, k)
		}
	}
}

// Concurrent identical searches must collapse onto one evaluation: stall
// the first request inside the engine, fire identical followers while it
// holds the flight, and check everyone gets the same answer while the
// shared-flight counter records the coalesced requests.
func TestSingleflightCoalesces(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	plan := faultinject.NewPlan(17).Add(faultinject.Fault{
		Point: core.PointPrepare, Action: faultinject.Stall,
		StallFor: 150 * time.Millisecond, Times: 1,
	})
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	const url = "/search?x=0&y=0&kw=roman,history&k=2"
	const followers = 3
	responses := make([]SearchResponse, 1+followers)
	var wg sync.WaitGroup
	wg.Add(1 + followers)
	go func() {
		defer wg.Done()
		getJSON(t, srv.URL+url, &responses[0])
	}()
	time.Sleep(50 * time.Millisecond) // leader is now stalled mid-evaluation
	for i := 1; i <= followers; i++ {
		i := i
		go func() {
			defer wg.Done()
			// Keyword order differs; the normalized key must not.
			getJSON(t, srv.URL+"/search?x=0&y=0&kw=history,roman&k=2", &responses[i])
		}()
	}
	wg.Wait()

	for i := 1; i < len(responses); i++ {
		if !reflect.DeepEqual(responses[i].Results, responses[0].Results) {
			t.Fatalf("response %d diverged from the leader's:\n%+v\n%+v",
				i, responses[i].Results, responses[0].Results)
		}
	}
	if got := s.sharedFlights.Load(); got != followers {
		t.Errorf("sharedFlights = %d, want %d", got, followers)
	}

	var stats StatsResponse
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Server.SharedFlights != followers {
		t.Errorf("/stats sharedFlights = %d, want %d", stats.Server.SharedFlights, followers)
	}
	if stats.Window == nil || stats.Window.Fills == 0 {
		t.Errorf("/stats window section missing after windowed queries: %+v", stats.Window)
	}
}

// Requests that differ after normalization must not coalesce.
func TestSingleflightDistinctQueries(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var a, b SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &a)
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=1", &b)
	if s.sharedFlights.Load() != 0 {
		t.Errorf("sequential distinct queries coalesced: sharedFlights = %d", s.sharedFlights.Load())
	}
	if len(a.Results) == 0 || len(b.Results) == 0 {
		t.Fatalf("queries returned nothing: %d, %d results", len(a.Results), len(b.Results))
	}
}

// The ?window= parameter: result-identical across directives, echoed in
// the stats payload, rejected when malformed.
func TestSearchWindowParam(t *testing.T) {
	srv := testServer(t)
	var want SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &want)
	for _, win := range []string{"0", "1", "3", "64"} {
		var got SearchResponse
		resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2&window="+win, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window=%s: status %d", win, resp.StatusCode)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("window=%s changed the results:\n%+v\n%+v", win, got.Results, want.Results)
		}
	}
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2&window=3", &got)
	if got.Stats.Window != 3 {
		t.Errorf("stats.window = %d, want 3", got.Stats.Window)
	}
	for _, bad := range []string{"-2", "abc", "1.5"} {
		resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2&window="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("window=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
