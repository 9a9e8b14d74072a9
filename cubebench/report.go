package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// Clocks a metric can be read on. Wall figures are host elapsed time
// and vary with the machine; sim figures come from the library's BSP
// cost model and are exact for a seed; count and bytes are tallies.
const (
	clockWall  = "wall"
	clockSim   = "sim"
	clockCount = "count"
	clockBytes = "bytes"
)

// metric is one named measurement with its unit and clock.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
}

// host describes the machine a report was taken on, so a wall figure
// is never read without the core count behind it.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"GOARCH"`
}

func thisHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

// result is what one workload run measured and checked.
type result struct {
	metrics []metric
	// context holds figures printed for context only; the summary
	// line carries exactly the benchmark's declared metrics.
	context   []metric
	attempted int64 // operations issued, checks included
	failed    int64 // operation errors plus oracle mismatches
	// spans summarizes the traced run's spans by name (nil untraced).
	spans []spanSummary
	// notes describe the first failures.
	notes []string
}

func (r *result) add(name string, value float64, unit, clock string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Clock: clock})
}

// setup reports the set-up time: a declared metric of the end-to-end
// run, and context in the traced run, which declares only per-layer
// metrics.
func (r *result) setup(c config, secs float64) {
	if c.trace {
		r.info("setup_s", secs, "s", clockWall)
		return
	}
	r.add("setup_s", secs, "s", clockWall)
}

// info adds a context-only figure.
func (r *result) info(name string, value float64, unit, clock string) {
	r.context = append(r.context, metric{Name: name, Value: value, Unit: unit, Clock: clock})
}

// addFrom appends metrics.
func (r *result) addFrom(o []metric) { r.metrics = append(r.metrics, o...) }

func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// detail is the full report line: every metric with its clock, the
// host block, and the span summary of a traced run.
type detail struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Seconds    int           `json:"seconds"`
	Traced     bool          `json:"traced"`
	Host       host          `json:"host"`
	Attempted  int64         `json:"attempted"`
	Failed     int64         `json:"failed"`
	FailedFrac float64       `json:"failed_frac"`
	Metrics    []metric      `json:"metrics"`
	Context    []metric      `json:"context,omitempty"`
	Spans      []spanSummary `json:"spans,omitempty"`
}

// summary is the last output line, in the form the benchmark runner
// parses: correctness, operation counts, and each metric's value and
// unit.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints one human-readable line per metric, the detail
// line, and the summary line last.
func writeReport(w io.Writer, d detail) error {
	fmt.Fprintf(w, "host num_cpu=%d GOMAXPROCS=%d go=%s GOARCH=%s\n",
		d.Host.NumCPU, d.Host.GOMAXPROCS, d.Host.GoVersion, d.Host.GOARCH)
	fmt.Fprintf(w, "%-34s %14s  %-8s %s\n", "metric", "value", "unit", "clock")
	for _, m := range d.Metrics {
		fmt.Fprintf(w, "%-34s %14.6g  %-8s %s\n", m.Name, m.Value, m.Unit, m.Clock)
	}
	for _, m := range d.Context {
		fmt.Fprintf(w, "%-34s %14.6g  %-8s %s (context)\n", m.Name, m.Value, m.Unit, m.Clock)
	}
	fmt.Fprintf(w, "%-34s %14.6g  %-8s %s\n", "failed_frac", d.FailedFrac, "frac", clockCount)
	for _, s := range d.Spans {
		fmt.Fprintf(w, "span %-32s n=%-7d p50=%.1fus p99=%.1fus total=%.3fs\n",
			s.Name, s.N, s.P50us, s.P99us, s.TotalS)
	}
	line, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("encoding detail: %w", err)
	}
	fmt.Fprintf(w, "%s\n", line)
	s := summary{
		Correct:   d.Failed == 0 && d.Attempted > 0,
		Attempted: d.Attempted,
		Failed:    d.Failed,
		Metrics:   make(map[string]summaryMetric, len(d.Metrics)),
	}
	for _, m := range d.Metrics {
		s.Metrics[m.Name] = summaryMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err = json.Marshal(s)
	if err != nil {
		return fmt.Errorf("encoding summary: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the middle of xs (the mean of the two middles for an
// even count); NaN for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN for an empty slice. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durations converts a latency sample to float seconds scaled by unit
// (for example time.Microsecond yields microseconds).
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// medianSetup runs setup at least setupReps times and until
// setupTime has passed (at most setupMaxReps times), and returns the
// last setup's value and the median wall seconds. Cheap setups thus
// get many samples and a steady median. Each earlier value is dropped
// before the next setup runs, so only one is live at a time.
func medianSetup[T any](setup func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for start := time.Now(); len(secs) < setupMaxReps &&
		(len(secs) < setupReps || time.Since(start) < setupTime); {
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}
