package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/gen"
)

// The mixed workload runs writes beside reads on skewed data. Each
// episode starts from a snapshot of a partial cube holding only the
// base view of the hot-key retail facts. One reader serves closed-loop
// group-bys; one writer ingests a hot-key batch every
// mixedReadsPerBatch reads and runs an advisor step every
// mixedBatchesPerStep batches. The writer is paced by reads completed
// and the reader never runs more than one batch ahead, so every
// episode does the same work at any speed.
const (
	mixedFacts          = 40000
	mixedBatch          = 400 // facts per ingest batch
	mixedBatches        = 60  // batches per episode
	mixedReadsPerBatch  = 50
	mixedBatchesPerStep = 5
	mixedReads          = mixedBatches * mixedReadsPerBatch
	mixedQueries        = 1024 // distinct catalogue queries
	mixedAlpha          = 0.9
	mixedChecks         = 32 // catalogue queries checked on each episode's final cube
)

// groupByMix is an all-group-by catalogue mix.
var groupByMix = mixShares{groupBy: 100}

type mixedState struct {
	seed     int64
	base     *facts // the initial facts
	final    *facts // base plus every batch: the state each episode ends in
	snapshot []byte
	rows     [][][]uint32
	meas     [][]int64
	cat      []query
	mix      *gen.QueryMix
	chk      *checker
	want     []answer // oracle answers of the checked queries on final
}

// mixedStats accumulates episodes.
type mixedStats struct {
	q       queryStats
	ing     ingestStats
	adv     advisorStats
	elapsed time.Duration // episode time, snapshot loads excluded
	ops     opStats       // one window per episode; a read is an operation
}

func runMixed(c config) (*result, error) {
	st, setup, err := medianSetup(func() (*mixedState, error) {
		base := makeFacts(hotRetail(c.seed), c.seed, retailNames, retailCards, 0, mixedFacts)
		in, err := base.input()
		if err != nil {
			return nil, err
		}
		cube, err := rolap.Build(in, rolap.Options{Processors: procs, SelectedViews: [][]string{retailNames}})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := cube.Save(&buf); err != nil {
			return nil, err
		}
		return &mixedState{seed: c.seed, base: base, snapshot: buf.Bytes()}, nil
	})
	if err != nil {
		return nil, err
	}
	st.prepare()

	res := &result{}
	res.setup(c, setup)
	// One episode warms the heap and code paths before timing.
	if err := st.episode(nil, &mixedStats{}); err != nil {
		return nil, err
	}
	ms := &mixedStats{}
	if !c.trace {
		if err := st.loop(c.window(), nil, ms); err != nil {
			return nil, err
		}
		ms.ops.endToEnd(res)
		ms.q.context(res)
	} else {
		t, err := runTraced(c, func(d time.Duration, tr *tracer) (int, time.Duration, error) {
			ms = &mixedStats{}
			err := st.loop(d, tr, ms)
			return ms.adv.episodes, ms.elapsed, err
		})
		if err != nil {
			return nil, err
		}
		lp, err := probeLayers(st.base, t.tr)
		if err != nil {
			return nil, err
		}
		layerMetrics(res, t, lp, &buildStats{}, &ms.q, &ms.ing, &ms.adv, len(st.snapshot))
	}
	st.chk.tally(res)
	return res, nil
}

// prepare generates the ingest batches, the query catalogue and the
// oracle's answers on the final state.
func (st *mixedState) prepare() {
	src := hotRetail(st.seed)
	st.final = &facts{cards: retailCards, names: retailNames,
		dims: append([]uint32(nil), st.base.dims...), meas: append([]int64(nil), st.base.meas...)}
	for b := 0; b < mixedBatches; b++ {
		lo := mixedFacts + b*mixedBatch
		rows, meas := batch(src, st.seed, len(retailCards), lo, lo+mixedBatch)
		st.rows = append(st.rows, rows)
		st.meas = append(st.meas, meas)
		st.final.append(rows, meas)
	}
	st.cat = catalogue(retailCards, mixedQueries, groupByMix)
	st.mix = gen.NewQueryMix(mixedQueries, mixedAlpha, streamSeed)
	st.chk = newChecker()
	for i := 0; i < mixedChecks; i++ {
		st.want = append(st.want, st.final.oracle(st.cat[st.checkIdx(i)]))
	}
}

// checkIdx is the catalogue index of the i-th checked query.
func (st *mixedState) checkIdx(i int) int { return i * (mixedQueries / mixedChecks) }

// loop runs episodes until d has passed (at least one).
func (st *mixedState) loop(d time.Duration, tr *tracer, ms *mixedStats) error {
	start := time.Now()
	for ms.adv.episodes == 0 || time.Since(start) < d {
		if err := st.episode(tr, ms); err != nil {
			return err
		}
	}
	return nil
}

// episode loads a fresh cube from the snapshot and runs the paced
// reader and writer over it, then checks the final cube.
func (st *mixedState) episode(tr *tracer, ms *mixedStats) error {
	cube, err := rolap.LoadCube(bytes.NewReader(st.snapshot))
	st.chk.op("load snapshot", err)
	if err != nil {
		return fmt.Errorf("load snapshot: %w", err)
	}
	srv, err := cube.NewServer(rolap.ServerOptions{})
	if err != nil {
		return err
	}
	adv, err := cube.NewAdvisor(rolap.AdvisorOptions{Seed: st.seed})
	if err != nil {
		return err
	}
	before := srv.Stats()
	parent := tr.reserve()
	ingestSim := ms.ing.sim
	alloc0 := totalAlloc()

	var (
		mu             sync.Mutex
		cond           = sync.NewCond(&mu)
		reads, batches int
		werr           error
		wg             sync.WaitGroup
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < mixedBatches; b++ {
			mu.Lock()
			for reads < (b+1)*mixedReadsPerBatch {
				cond.Wait()
			}
			mu.Unlock()
			t0 := time.Now()
			im, err := cube.Ingest(st.rows[b], st.meas[b])
			t1 := time.Now()
			tr.record(parent, "rolap.Cube.Ingest", "", t0, t1)
			st.chk.op("ingest", err)
			if err == nil && (b+1)%mixedBatchesPerStep == 0 {
				_, err = adv.Step()
				t2 := time.Now()
				tr.record(parent, "rolap.Advisor.Step", "", t1, t2)
				st.chk.op("advisor step", err)
				ms.adv.lat = append(ms.adv.lat, t2.Sub(t1))
			}
			ms.ing.observe(t1.Sub(t0), im)
			mu.Lock()
			batches = b + 1
			if err != nil {
				werr = err
				batches = mixedBatches // release the reader
			}
			cond.Broadcast()
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	ctx := context.Background()
	var qs queryStats
	for r := 0; r < mixedReads; r++ {
		mu.Lock()
		for batches < r/mixedReadsPerBatch-1 {
			cond.Wait()
		}
		mu.Unlock()
		idx := st.mix.Key(r)
		t0 := time.Now()
		_, qm, err := serve(ctx, srv, st.final, st.cat[idx])
		t1 := time.Now()
		tr.record(parent, spanQuery, hitTag(qm), t0, t1)
		qs.observe(t1.Sub(t0), qm, err)
		st.chk.op("serve", err)
		mu.Lock()
		reads = r + 1
		cond.Broadcast()
		mu.Unlock()
	}
	wg.Wait()
	end := time.Now()
	alloc := totalAlloc() - alloc0
	tr.finish(parent, 0, "mixed.episode", start, end)
	ms.elapsed += end.Sub(start)
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	advStats := adv.Stats()
	ms.ops.window(qs.lat, end.Sub(start), alloc, qs.simSeconds+ms.ing.sim-ingestSim+advStats.BuildSimSeconds)
	qs.serverDelta(before, srv.Stats())
	ms.q.merge(&qs)
	ms.adv.endEpisode(advStats)

	// The final cube must hold exactly the base facts plus every batch.
	for i, want := range st.want {
		a, err := ask(cube, st.final, st.cat[st.checkIdx(i)])
		st.chk.op("final check", err)
		if err != nil {
			return fmt.Errorf("final check %d: %w", i, err)
		}
		st.chk.expect(fmt.Sprintf("final state, query %d", st.checkIdx(i)), a, want)
	}
	return nil
}
