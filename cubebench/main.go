// Command cubebench is the repository's benchmark: one program that
// runs the build, serve and mixed workloads against the public rolap
// API, checks their answers against an oracle computed from the
// generated facts, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run), each with its unit and clock.
//
// Usage, from the repository root:
//
//	bash cubebench/run.sh --workload build|serve|mixed --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"build": runBuild,
	"serve": runServe,
	"mixed": runMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cubebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same facts and queries")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cubebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(names, ", "))
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cubebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	d := detail{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		Host:       thisHost(),
		Attempted:  res.attempted,
		Failed:     res.failed,
		FailedFrac: res.failedFrac(),
		Metrics:    res.metrics,
		Context:    res.context,
		Spans:      res.spans,
	}
	if err := writeReport(stdout, d); err != nil {
		fmt.Fprintf(stderr, "cubebench: %v\n", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "cubebench: %s\n", n)
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "cubebench: %d of %d operations failed or disagreed with the oracle\n",
			res.failed, res.attempted)
		return 1
	}
	return 0
}

// Each workload sets up at least setupReps times and for at least
// setupTime, at most setupMaxReps times; setup_s is the median.
const (
	setupReps    = 5
	setupTime    = 2 * time.Second
	setupMaxReps = 40
)

// window returns the measured duration of a run.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// traceRun is what the traced run measured around the workload's
// profiled half.
type traceRun struct {
	tr       *tracer
	attr     attribution
	gcCycles uint32
	ops      int // workload operations in the profiled half
	overhead float64
}

// runTraced runs phase untraced for half the window, then traced with
// a CPU profile for the other half. phase returns how many workload
// operations it completed and in what wall time; the ratio of the two
// halves' time per operation is the tracing overhead.
func runTraced(c config, phase func(d time.Duration, tr *tracer) (int, time.Duration, error)) (traceRun, error) {
	perOp := func(ops int, elapsed time.Duration) float64 { return elapsed.Seconds() / float64(max(ops, 1)) }
	half := c.window() / 2
	ops, elapsed, err := phase(half, nil)
	if err != nil {
		return traceRun{}, err
	}
	plain := perOp(ops, elapsed)
	tr := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prof, err := startProfile()
	if err != nil {
		return traceRun{}, err
	}
	ops, elapsed, err = phase(half, tr)
	samples, perr := prof.stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return traceRun{}, err
	}
	if perr != nil {
		return traceRun{}, perr
	}
	return traceRun{
		tr:       tr,
		attr:     attribute(samples),
		gcCycles: after.NumGC - before.NumGC,
		ops:      ops,
		overhead: perOp(ops, elapsed)/plain - 1,
	}, nil
}

// layerMetrics assembles the per-layer metrics every workload reports:
// the layer probe, the profile attribution, the workload's own build,
// query, ingest and advisor figures (zero where the workload does no such
// work), and the tracing overhead.
func layerMetrics(res *result, t traceRun, lp layerProbe, bs *buildStats, q *queryStats, ing *ingestStats, adv *advisorStats, snapshotBytes int) {
	res.addFrom(lp.metrics())
	res.addFrom(bs.layerMetrics())
	res.addFrom(profileMetrics(t.attr, t.gcCycles, t.ops))
	res.add("persist.snapshot_bytes", float64(snapshotBytes), "bytes", clockBytes)
	res.addFrom(q.layerMetrics(t.tr))
	res.addFrom(ing.layerMetrics())
	res.addFrom(adv.layerMetrics())
	res.add("trace.overhead_frac", t.overhead, "frac", clockWall)
	res.spans = t.tr.summary()
}
