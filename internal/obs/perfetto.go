package obs

import "strconv"

// Perfetto/Chrome trace_event export: renders a captured span tree in
// the JSON Object Format the Chrome tracing UI and Perfetto understand
// ({"displayTimeUnit": "ms", "traceEvents": [...]}), so any ?trace=1
// capture opens directly in a flamegraph viewer. Every span becomes one
// "ph":"X" complete event with microsecond ts/dur. Spans that overlap a
// sibling without nesting inside it (concurrent shard calls, hedged
// shard attempts) are pushed onto their own track (tid) — the viewers render
// same-track events by containment, so overlap on one track would draw
// a wrong nesting.

// TraceEvent is one entry of a trace_event JSON document.
type TraceEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   int64             `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// PerfettoTrace is the top-level trace_event JSON document.
type PerfettoTrace struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// PerfettoFromSpan converts an exported span tree to trace_event form.
// Nil in, nil out.
func PerfettoFromSpan(root *SpanJSON) *PerfettoTrace {
	if root == nil {
		return nil
	}
	c := &perfettoConv{nextTID: 1, lanes: map[int][]interval{}}
	c.emit(root, 1)
	return &PerfettoTrace{DisplayTimeUnit: "ms", TraceEvents: c.events}
}

type perfettoConv struct {
	events  []TraceEvent
	nextTID int
	lanes   map[int][]interval // tid -> stack of still-open event intervals
}

type interval struct{ start, end int64 }

func (c *perfettoConv) emit(s *SpanJSON, parentTID int) {
	if s == nil {
		return
	}
	tid := c.lane(s, parentTID)
	ev := TraceEvent{
		Name:  s.Name,
		Phase: "X",
		TS:    s.StartMicros,
		Dur:   s.DurationMicros,
		PID:   1,
		TID:   tid,
	}
	if len(s.Attrs) > 0 || s.Dropped > 0 || s.TraceID != "" {
		ev.Args = make(map[string]string, len(s.Attrs)+2)
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
		if s.Dropped > 0 {
			ev.Args["droppedSpans"] = strconv.FormatInt(s.Dropped, 10)
		}
		if s.TraceID != "" {
			ev.Args["traceId"] = s.TraceID
		}
	}
	c.events = append(c.events, ev)
	for _, ch := range s.Children {
		c.emit(ch, tid)
	}
}

// lane keeps a span on its parent's track when it nests properly inside
// every event still open there (events on one tid must form a laminar
// family — viewers draw same-track events by containment); otherwise —
// an overlapping sibling, as concurrent shard calls or a hedge racing
// the first attempt produce — it opens a fresh track. Each track carries a
// stack of open intervals; entries are popped lazily once a later span
// starts at or after their end, so a sibling is compared against its
// deepest still-open ancestor, not merely the last emitted event.
func (c *perfettoConv) lane(s *SpanJSON, parentTID int) int {
	start, end := s.StartMicros, s.StartMicros+s.DurationMicros
	stack := c.lanes[parentTID]
	for len(stack) > 0 && stack[len(stack)-1].end <= start {
		stack = stack[:len(stack)-1]
	}
	if len(stack) == 0 || (start >= stack[len(stack)-1].start && end <= stack[len(stack)-1].end) {
		c.lanes[parentTID] = append(stack, interval{start: start, end: end})
		return parentTID
	}
	c.lanes[parentTID] = stack
	tid := c.nextTID + 1
	c.nextTID = tid
	c.lanes[tid] = []interval{{start: start, end: end}}
	return tid
}
