package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// A span is one timed call from the benchmark into a layer. Start and
// End are nanoseconds since the pass began; N is how many operations
// the span covers (a batch of probes is one span).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// spanRecorder keeps a traced pass's spans in memory. A nil recorder
// records nothing, so untraced passes run the same code.
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes of spans begun and not yet ended
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *spanRecorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].ID
	}
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent,
		Start: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span begin returned, recording that it covered n
// operations.
func (r *spanRecorder) end(i, n int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
	r.spans[i].N = n
	r.open = r.open[:len(r.open)-1]
}

type spanTotal struct {
	total time.Duration
	n     int
}

// totals sums span durations and operation counts by span name.
func (r *spanRecorder) totals() map[string]spanTotal {
	out := map[string]spanTotal{}
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		t := out[s.Name]
		t.total += time.Duration(s.End - s.Start)
		t.n += s.N
		out[s.Name] = t
	}
	return out
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot ("system.New" belongs to system).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts of them that child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]int64{}
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// sortedLayers returns the layers of m, largest self time first.
func sortedLayers(m map[string]time.Duration) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// chromeEvent is one Chrome trace-event-format record (the JSON that
// chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the traced passes' spans to path, one process
// track per workload.
func writeChromeTrace(path string, runs []*workloadRun) error {
	var events []chromeEvent
	for i, w := range runs {
		if w.traced == nil {
			continue
		}
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": w.name}})
		for _, s := range w.traced.Spans {
			events = append(events, chromeEvent{Name: s.Name, Ph: "X", Pid: i + 1, Tid: 1,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "n": s.N}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
