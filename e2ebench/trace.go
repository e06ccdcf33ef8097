package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps each call to a layer's public function and keeps the
// spans in memory until the run ends. Times are nanoseconds since the
// recording process's tracer origin.
type Span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"` // index into the span list, -1 for a root
	Args   map[string]float64 `json:"args,omitempty"`
}

func (s Span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans. A nil *tracer records nothing, so the untraced
// pipeline runs the very same code with no timing or MemStats reads.
type tracer struct {
	origin time.Time
	spans  []Span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// span runs fn as a child of the innermost open span. The span's args are
// what fn returns plus the allocation counters of the call: "allocs"
// (runtime.MemStats.Mallocs delta) and "alloc_bytes" (TotalAlloc delta).
func (t *tracer) span(name string, fn func() (map[string]float64, error)) error {
	if t == nil {
		_, err := fn()
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), Parent: parent})
	t.stack = append(t.stack, idx)
	args, err := fn()
	t.spans[idx].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	runtime.ReadMemStats(&after)
	if args == nil {
		args = map[string]float64{}
	}
	args["allocs"] = float64(after.Mallocs - before.Mallocs)
	args["alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	t.spans[idx].Args = args
	return err
}

// phases appends back-to-back children of the innermost open span from
// (name, seconds) durations a layer reported itself, such as core's
// Report.PhaseTimes: the durations are the layer's, the placement in time
// is sequential from the parent's start.
func (t *tracer) phases(durations []phase) {
	parent := t.stack[len(t.stack)-1]
	at := t.spans[parent].Start
	for _, p := range durations {
		d := int64(p.seconds * 1e9)
		t.spans = append(t.spans, Span{Name: p.name, Start: at, End: at + d, Parent: parent})
		at += d
	}
}

type phase struct {
	name    string
	seconds float64
}

// lastIndex returns the index of the most recent span named name, or -1.
func lastIndex(spans []Span, name string) int {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name {
			return i
		}
	}
	return -1
}

// selfSeconds returns each span's self time: its duration minus the part
// of its interval that its direct children cover.
func selfSeconds(spans []Span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.seconds()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// spanSet is the spans of one recording process, placed on a common
// timeline: offset is the process's tracer origin relative to the trace's.
type spanSet struct {
	label  string
	offset time.Duration
	spans  []Span
}

// writeChromeTrace writes the span sets as Chrome trace-event JSON ("X"
// complete events, one thread row per set, meta as the trace's otherData),
// which Perfetto and chrome://tracing open directly.
func writeChromeTrace(path string, meta map[string]string, sets []spanSet) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for tid, set := range sets {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": set.label}})
		for _, s := range set.spans {
			layer, _, _ := strings.Cut(s.Name, ".")
			args := map[string]any{}
			for k, v := range s.Args {
				args[k] = v
			}
			if s.Parent >= 0 {
				args["parent"] = set.spans[s.Parent].Name
			}
			events = append(events, event{
				Name: s.Name,
				Cat:  layer,
				Ph:   "X",
				TS:   float64(set.offset.Nanoseconds()+s.Start) / 1e3,
				Dur:  float64(s.End-s.Start) / 1e3,
				PID:  1,
				TID:  tid,
				Args: args,
			})
		}
	}
	// Parents before children at equal timestamps, so viewers nest them.
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		TraceEvents     []event           `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{events, "ms", meta})
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
