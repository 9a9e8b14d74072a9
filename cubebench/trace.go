package main

import (
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory. Spans are recorded by the benchmark
// around its calls into the library's public layer functions, so the
// library itself runs unmodified. A nil *tracer records nothing, which
// is how the untraced run measures end-to-end figures.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Tag splits a name's spans into classes that
// behave differently, such as cache hits and misses of one query call.
type span struct {
	id, parent int
	name, tag  string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span under parent (0 for a root) and
// returns its id. Callers time the call themselves, so the same
// timestamps serve the end-to-end sample and the span.
func (t *tracer) record(parent int, name, tag string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, tag: tag,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return id
}

// reserve allocates an id for a parent span whose end is not known
// yet; finish fills it in.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) finish(id, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{id: id, parent: parent, name: name,
		start: start.Sub(t.t0), end: end.Sub(t.t0)}
}

// durations returns the durations of the spans with name and tag.
func (t *tracer) durations(name, tag string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.tag == tag {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// spanSummary is one span name's count, latency quantiles and total
// self time (duration minus the part covered by child spans).
type spanSummary struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent > 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := map[string][]span{}
	for _, s := range t.spans {
		key := s.name
		if s.tag != "" {
			key += "[" + s.tag + "]"
		}
		byName[key] = append(byName[key], s)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, ss := range byName {
		ds := make([]time.Duration, len(ss))
		var total, self time.Duration
		for i, s := range ss {
			ds[i] = s.end - s.start
			total += ds[i]
			self += ds[i] - covered(children[s.id])
		}
		us := durations(ds, time.Microsecond)
		out = append(out, spanSummary{Name: name, N: len(ss),
			P50us: quantile(us, 0.5), P99us: quantile(us, 0.99),
			TotalS: total.Seconds(), SelfS: self.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the spans' intervals:
// children of one parent may overlap when they run on several
// goroutines, so their durations do not simply add up.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var total, end time.Duration
	for _, s := range ss {
		if s.start > end {
			end = s.start
		}
		if s.end > end {
			total += s.end - end
			end = s.end
		}
	}
	return total
}
