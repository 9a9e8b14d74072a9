package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
)

// The build workload builds the full cube of the paper's d=8 data set
// again and again; each build is followed by Save to memory and by
// LoadCube plus one first query. Build-side layers do all the work.
const (
	buildFacts  = 60000
	buildChecks = 24 // catalogue queries checked on every built and loaded cube
)

// paperMix is the query-kind mix of the d=8 catalogue, in percent:
// group-bys, point aggregates, and range aggregates for the rest.
var paperMix = mixShares{groupBy: 40, point: 30}

// firstQuery is the query timed with LoadCube: the first answer a
// freshly loaded cube gives. It is also checked.
var firstQuery = query{kind: kindGroupBy, dims: []int{1}, filters: []filter{{dim: 0, val: 0}}}

type buildState struct {
	f      *facts
	in     *rolap.Input
	checks []query
	chk    *checker
	// answers are the first build's answers to checks, which every
	// later build, and every cube loaded from a snapshot, must repeat.
	answers []answer
}

// buildStats accumulates build iterations.
type buildStats struct {
	build, save, load []float64 // wall seconds
	allocMB, heapMB   []float64 // per Build
	met               rolap.Metrics
	snapshot          int
	ops               opStats // one window per iteration
}

// layerMetrics renders the build phases as per-layer metrics: medians
// of each timed call and of the Build's allocation and retained heap.
// Workloads that build no cube in their measured window report 0.
func (bs *buildStats) layerMetrics() []metric {
	return []metric{
		{"core.build_s", orZero(median(bs.build)), "s", clockWall},
		{"core.build_alloc_mb", orZero(median(bs.allocMB)), "MB", clockBytes},
		{"colstore.cube_heap_mb", orZero(median(bs.heapMB)), "MB", clockBytes},
		{"persist.save_s", orZero(median(bs.save)), "s", clockWall},
		{"persist.load_s", orZero(median(bs.load)), "s", clockWall},
	}
}

func runBuild(c config) (*result, error) {
	st, setup, err := medianSetup(func() (*buildState, error) {
		f := paperFacts(c.seed, buildFacts)
		in, err := f.input()
		return &buildState{f: f, in: in}, err
	})
	if err != nil {
		return nil, err
	}
	st.checks = append([]query{firstQuery}, catalogue(st.f.cards, buildChecks-1, paperMix)...)
	st.chk = newChecker()

	res := &result{}
	res.setup(c, setup)
	var bs buildStats
	if !c.trace {
		if err := st.loop(c.window(), nil, &bs); err != nil {
			return nil, err
		}
		bs.ops.endToEnd(res)
	} else {
		t, err := runTraced(c, func(d time.Duration, tr *tracer) (int, time.Duration, error) {
			bs = buildStats{}
			t0 := time.Now()
			err := st.loop(d, tr, &bs)
			return len(bs.build), time.Since(t0), err
		})
		if err != nil {
			return nil, err
		}
		lp, err := probeLayers(st.f, t.tr)
		if err != nil {
			return nil, err
		}
		// The probe builds with core.BuildCube directly; the same
		// configuration must give the public build's simulated time.
		if lp.met.SimSeconds != bs.met.SimSeconds {
			return nil, fmt.Errorf("core.BuildCube simulated %v s, rolap.Build %v s", lp.met.SimSeconds, bs.met.SimSeconds)
		}
		layerMetrics(res, t, lp, &bs, &queryStats{}, &ingestStats{}, &advisorStats{}, bs.snapshot)
	}
	st.chk.verify(func(i int) answer { return st.f.oracle(st.checks[i]) })
	st.chk.tally(res)
	return res, nil
}

// loop builds, saves and loads until d has passed (at least once).
func (st *buildState) loop(d time.Duration, tr *tracer, bs *buildStats) error {
	start := time.Now()
	for len(bs.build) == 0 || time.Since(start) < d {
		if err := st.iteration(tr, bs); err != nil {
			return err
		}
	}
	return nil
}

// iteration runs one build, save, and load-plus-first-query, timing
// each and checking the built and loaded cubes' answers. A library
// error fails the run: every later figure would be meaningless.
func (st *buildState) iteration(tr *tracer, bs *buildStats) error {
	parent := tr.reserve()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0, alloc0 := ms.HeapAlloc, ms.TotalAlloc

	t0 := time.Now()
	cube, err := rolap.Build(st.in, rolap.Options{Processors: procs})
	t1 := time.Now()
	tr.record(parent, "rolap.Build", "", t0, t1)
	st.chk.op("build", err)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	runtime.ReadMemStats(&ms)
	buildAlloc := ms.TotalAlloc - alloc0
	bs.allocMB = append(bs.allocMB, float64(buildAlloc)/1e6)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	bs.heapMB = append(bs.heapMB, (float64(ms.HeapAlloc)-float64(heap0))/1e6)
	bs.build = append(bs.build, t1.Sub(t0).Seconds())
	bs.met = cube.Metrics()
	if err := st.check("built", cube); err != nil {
		return err
	}

	// Each timed call starts from a collected heap, so one call's
	// garbage does not bill the next.
	var buf bytes.Buffer
	runtime.GC()
	alloc2 := totalAlloc()
	t2 := time.Now()
	err = cube.Save(&buf)
	t3 := time.Now()
	saveAlloc := totalAlloc() - alloc2
	tr.record(parent, "rolap.Cube.Save", "", t2, t3)
	st.chk.op("save", err)
	if err != nil {
		return fmt.Errorf("save: %w", err)
	}
	bs.save = append(bs.save, t3.Sub(t2).Seconds())
	bs.snapshot = buf.Len()

	runtime.GC()
	alloc4 := totalAlloc()
	t4 := time.Now()
	loaded, err := rolap.LoadCube(&buf)
	t5 := time.Now()
	var first answer
	if err == nil {
		first, err = ask(loaded, st.f, firstQuery)
	}
	t6 := time.Now()
	loadAlloc := totalAlloc() - alloc4
	tr.record(parent, "rolap.LoadCube", "", t4, t5)
	tr.record(parent, "rolap.Cube.GroupBy", "first", t5, t6)
	st.chk.op("load and first query", err)
	if err != nil {
		return fmt.Errorf("load and first query: %w", err)
	}
	bs.load = append(bs.load, t6.Sub(t4).Seconds())
	op := t1.Sub(t0) + t3.Sub(t2) + t6.Sub(t4)
	bs.ops.window([]time.Duration{op}, op, buildAlloc+saveAlloc+loadAlloc, bs.met.SimSeconds)
	st.chk.expect("first query after load", first, st.answers[0])
	if err := st.check("loaded", loaded); err != nil {
		return err
	}
	tr.finish(parent, 0, "build.iteration", t0, time.Now())
	return nil
}

// check asks every check query of cube and compares the answers with
// the first build's.
func (st *buildState) check(what string, cube *rolap.Cube) error {
	for i, q := range st.checks {
		a, err := ask(cube, st.f, q)
		st.chk.op(what+" cube check", err)
		if err != nil {
			return fmt.Errorf("%s cube, check query %d: %w", what, i, err)
		}
		if len(st.answers) < len(st.checks) {
			st.answers = append(st.answers, a)
			st.chk.observe(i, a)
			continue
		}
		st.chk.expect(fmt.Sprintf("%s cube, check query %d", what, i), a, st.answers[i])
	}
	return nil
}
