package obs

import (
	"sync"
	"time"
)

// QueryRecord is one finished query as kept by the ring buffer and
// served at /debug/queries.
type QueryRecord struct {
	ID             string    `json:"id"`
	Time           time.Time `json:"time"`
	Endpoint       string    `json:"endpoint"`
	Algo           string    `json:"algo,omitempty"`
	Keywords       string    `json:"keywords,omitempty"`
	K              int       `json:"k,omitempty"`
	DurationMicros int64     `json:"durationMicros"`
	Status         int       `json:"status"`
	Partial        bool      `json:"partial,omitempty"`
	Error          string    `json:"error,omitempty"`
	Trace          *SpanJSON `json:"trace,omitempty"`
}

// QueryRing keeps the last N query records. Add is cheap (one mutex,
// one slot overwrite); Snapshot copies newest-first for serving.
// All methods are nil-safe.
type QueryRing struct {
	mu    sync.Mutex
	buf   []QueryRecord
	next  int
	total uint64
}

// NewQueryRing returns a ring holding the last n records (n < 1 selects 64).
func NewQueryRing(n int) *QueryRing {
	if n < 1 {
		n = 64
	}
	return &QueryRing{buf: make([]QueryRecord, n)}
}

// Add records one query.
func (r *QueryRing) Add(rec QueryRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the recorded queries, newest first.
func (r *QueryRing) Snapshot() []QueryRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]QueryRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
