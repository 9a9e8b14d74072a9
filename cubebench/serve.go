package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/gen"
)

// The serve workload is read-only serving of the build workload's
// cube: two closed-loop clients draw queries from a Zipf mix over a
// catalogue larger than the server's 256-entry result cache, so both
// the cache and the engine path are timed.
const (
	serveClients = 2
	serveQueries = 4096 // distinct catalogue queries
	serveAlpha   = 0.7  // Zipf skew of the query stream
	// serveCheckEvery picks the checked catalogue queries: every
	// answer to one of them is digested and compared.
	serveCheckEvery = 16
	serveWarmup     = 2 * time.Second
	// serveWindow is the length of one measurement window.
	serveWindow = 2 * time.Second
)

type serveState struct {
	f   *facts
	srv *rolap.Server
	cat []query
	mix *gen.QueryMix
	pos atomic.Int64 // next position in the query stream
	chk *checker
}

func runServe(c config) (*result, error) {
	st, setup, err := medianSetup(func() (*serveState, error) {
		f := paperFacts(c.seed, buildFacts)
		in, err := f.input()
		if err != nil {
			return nil, err
		}
		cube, err := rolap.Build(in, rolap.Options{Processors: procs})
		if err != nil {
			return nil, err
		}
		srv, err := cube.NewServer(rolap.ServerOptions{})
		return &serveState{f: f, srv: srv}, err
	})
	if err != nil {
		return nil, err
	}
	st.cat = catalogue(st.f.cards, serveQueries, paperMix)
	st.mix = gen.NewQueryMix(serveQueries, serveAlpha, streamSeed)
	st.chk = newChecker()

	res := &result{}
	res.setup(c, setup)
	// Fill the result cache before anything is timed.
	st.phase(serveWarmup, nil)
	var qs *queryStats
	if !c.trace {
		qs = &queryStats{}
		var ops opStats
		for start := time.Now(); ops.ops == 0 || time.Since(start) < c.window(); {
			a0 := totalAlloc()
			w, elapsed := st.phase(min(serveWindow, c.window()), nil)
			ops.window(w.lat, elapsed, totalAlloc()-a0, w.simSeconds)
			qs.merge(w)
		}
		ops.endToEnd(res)
		qs.context(res)
	} else {
		t, err := runTraced(c, func(d time.Duration, tr *tracer) (int, time.Duration, error) {
			var elapsed time.Duration
			qs, elapsed = st.phase(d, tr)
			return int(qs.n()), elapsed, nil
		})
		if err != nil {
			return nil, err
		}
		lp, err := probeLayers(st.f, t.tr)
		if err != nil {
			return nil, err
		}
		layerMetrics(res, t, lp, &buildStats{}, qs, &ingestStats{}, &advisorStats{}, 0)
	}
	st.chk.verify(func(i int) answer { return st.f.oracle(st.cat[i]) })
	st.chk.tally(res)
	return res, nil
}

// phase runs the clients for d and returns their merged statistics and
// the elapsed wall time.
func (st *serveState) phase(d time.Duration, tr *tracer) (*queryStats, time.Duration) {
	before := st.srv.Stats()
	ctx := context.Background()
	start := time.Now()
	per := make([]*queryStats, serveClients)
	var wg sync.WaitGroup
	for c := range per {
		per[c] = &queryStats{}
		wg.Add(1)
		go func(qs *queryStats) {
			defer wg.Done()
			for time.Since(start) < d {
				idx := st.mix.Key(int(st.pos.Add(1) - 1))
				t0 := time.Now()
				out, qm, err := serve(ctx, st.srv, st.f, st.cat[idx])
				t1 := time.Now()
				tr.record(0, spanQuery, hitTag(qm), t0, t1)
				qs.observe(t1.Sub(t0), qm, err)
				st.chk.op("serve", err)
				if err == nil && idx%serveCheckEvery == 0 {
					st.chk.observe(idx, out.answer())
				}
			}
		}(per[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := &queryStats{}
	for _, qs := range per {
		all.merge(qs)
	}
	all.serverDelta(before, st.srv.Stats())
	return all, elapsed
}
