package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// opStats is what every workload reports end to end. An operation is
// the workload's unit of work: one Build, Save and LoadCube-plus-first-
// answer iteration on build, one query on serve, and one read on
// mixed, which also bears its share of the paced writes. Wall figures
// are medians over windows, so a burst of host noise in one window
// does not move a run's figure; allocation and simulated time are
// totals over all operations.
type opStats struct {
	p50ms, perSec []float64 // one per window
	ops           int64
	allocBytes    uint64
	simSeconds    float64
}

// window records one window: the latencies of its operations, its
// wall time, the bytes allocated and the simulated seconds spent in
// it.
func (o *opStats) window(lat []time.Duration, elapsed time.Duration, alloc uint64, sim float64) {
	o.p50ms = append(o.p50ms, quantile(durations(lat, time.Millisecond), 0.5))
	o.perSec = append(o.perSec, float64(len(lat))/elapsed.Seconds())
	o.ops += int64(len(lat))
	o.allocBytes += alloc
	o.simSeconds += sim
}

// endToEnd renders the end-to-end metrics.
func (o *opStats) endToEnd(res *result) {
	n := float64(max(o.ops, 1))
	res.add("op_p50_ms", median(o.p50ms), "ms", clockWall)
	res.add("ops_per_s", median(o.perSec), "1/s", clockWall)
	res.add("alloc_mb_per_op", float64(o.allocBytes)/1e6/n, "MB", clockBytes)
	res.add("sim_s_per_op", o.simSeconds/n, "sim_s", clockSim)
	res.info("ops", float64(o.ops), "count", clockCount)
	res.info("windows", float64(len(o.p50ms)), "count", clockCount)
}

// totalAlloc returns the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// queryStats accumulates one client's (or, merged, all clients')
// served queries.
type queryStats struct {
	lat         []time.Duration
	hits        int64
	executed    int64 // queries that ran on the engine (not cache hits)
	rowsScanned int64
	indexUsed   int64
	simSeconds  float64
	// fallbacks and targets are the ServerStats.Views deltas over the
	// phase: queries rewritten to a superset scan, and all queries.
	fallbacks, targets  int64
	coalesced, rejected int64
}

// observe records one served query; errors are counted by the checker.
func (s *queryStats) observe(d time.Duration, qm rolap.QueryMetrics, err error) {
	s.lat = append(s.lat, d)
	if err != nil {
		return
	}
	if qm.CacheHit {
		s.hits++
		return
	}
	s.executed++
	s.rowsScanned += qm.RowsScanned
	s.simSeconds += qm.SimSeconds
	if qm.IndexUsed {
		s.indexUsed++
	}
}

func (s *queryStats) merge(o *queryStats) {
	s.lat = append(s.lat, o.lat...)
	s.hits += o.hits
	s.executed += o.executed
	s.rowsScanned += o.rowsScanned
	s.indexUsed += o.indexUsed
	s.simSeconds += o.simSeconds
	s.fallbacks += o.fallbacks
	s.targets += o.targets
	s.coalesced += o.coalesced
	s.rejected += o.rejected
}

// serverDelta records the server counters accrued between two Stats
// snapshots.
func (s *queryStats) serverDelta(before, after rolap.ServerStats) {
	for name, v := range after.Views {
		b := before.Views[name]
		s.fallbacks += v.Fallbacks - b.Fallbacks
		s.targets += v.Hits + v.Fallbacks - b.Hits - b.Fallbacks
	}
	s.coalesced += after.Coalesced - before.Coalesced
	s.rejected += after.Rejected - before.Rejected
}

func (s *queryStats) n() int64 { return int64(len(s.lat)) }

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// orZero maps the NaN of an empty sample to 0.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// context prints the share of queries each reuse path served, so a
// change that helps only cached or only fallback queries can be
// weighed.
func (s *queryStats) context(res *result) {
	res.info("cache_hit_frac", frac(s.hits, s.n()), "frac", clockCount)
	res.info("fallback_frac", frac(s.fallbacks, s.targets), "frac", clockCount)
}

// layerMetrics renders the query-layer metrics; spans give the hit and
// miss latencies, the served QueryMetrics and server counters the rest.
func (s *queryStats) layerMetrics(tr *tracer) []metric {
	miss := durations(tr.durations(spanQuery, "miss"), time.Microsecond)
	hit := durations(tr.durations(spanQuery, "hit"), time.Microsecond)
	return []metric{
		{"queryengine.miss_p50_us", orZero(quantile(miss, 0.5)), "us", clockWall},
		{"queryengine.miss_p99_us", orZero(quantile(miss, 0.99)), "us", clockWall},
		{"queryengine.rows_scanned_per_query", float64(s.rowsScanned) / float64(max(s.executed, 1)), "rows", clockCount},
		{"queryengine.index_used_frac", frac(s.indexUsed, s.executed), "frac", clockCount},
		{"queryengine.fallback_frac", frac(s.fallbacks, s.targets), "frac", clockCount},
		{"queryengine.sim_us_per_query", s.simSeconds * 1e6 / float64(max(s.executed, 1)), "sim_us", clockSim},
		{"server.cache_hit_frac", frac(s.hits, s.n()), "frac", clockCount},
		{"server.hit_p50_us", orZero(quantile(hit, 0.5)), "us", clockWall},
		{"server.query_p99_us", orZero(quantile(durations(s.lat, time.Microsecond), 0.99)), "us", clockWall},
		{"server.coalesced", float64(s.coalesced), "count", clockCount},
		{"server.rejected", float64(s.rejected), "count", clockCount},
	}
}

// spanQuery names the spans around Server.GroupBy, Aggregate and
// RangeAggregate calls; the tag is "hit" or "miss".
const spanQuery = "rolap.Server.query"

func hitTag(qm rolap.QueryMetrics) string {
	if qm.CacheHit {
		return "hit"
	}
	return "miss"
}

// ingestStats accumulates applied ingest batches.
type ingestStats struct {
	lat          []time.Duration
	sim          float64
	deltaSim     float64
	mergeSim     float64
	bytesMoved   int64
	changedViews int64
}

func (s *ingestStats) observe(d time.Duration, im rolap.IngestMetrics) {
	s.lat = append(s.lat, d)
	s.sim += im.SimSeconds
	s.deltaSim += im.IngestSeconds
	s.mergeSim += im.DeltaMergeSeconds
	s.bytesMoved += im.BytesMoved
	s.changedViews += int64(len(im.ChangedViews))
}

func (s *ingestStats) layerMetrics() []metric {
	n := float64(max(len(s.lat), 1))
	ms := durations(s.lat, time.Millisecond)
	return []metric{
		{"ingest.batch_p50_ms", orZero(quantile(ms, 0.5)), "ms", clockWall},
		{"ingest.batch_p90_ms", orZero(quantile(ms, 0.9)), "ms", clockWall},
		{"ingest.delta_sim_s", s.deltaSim / n, "sim_s", clockSim},
		{"ingest.deltamerge_sim_s", s.mergeSim / n, "sim_s", clockSim},
		{"ingest.bytes_moved", float64(s.bytesMoved) / n, "bytes", clockBytes},
		{"ingest.changed_views_per_batch", float64(s.changedViews) / n, "count", clockCount},
	}
}

// advisorStats accumulates advisor steps. The counters are per
// episode, summed over episodes, and divided by episodes when
// reported.
type advisorStats struct {
	lat          []time.Duration
	episodes     int
	materialized int64
	views        int64
	buildSim     float64
}

func (s *advisorStats) endEpisode(st rolap.AdvisorStats) {
	s.episodes++
	s.materialized += st.Materialized
	s.views += int64(st.CurrentViews)
	s.buildSim += st.BuildSimSeconds
}

func (s *advisorStats) layerMetrics() []metric {
	n := float64(max(s.episodes, 1))
	ms := durations(s.lat, time.Millisecond)
	return []metric{
		{"advisor.step_p50_ms", orZero(quantile(ms, 0.5)), "ms", clockWall},
		{"advisor.materialized", float64(s.materialized) / n, "count", clockCount},
		{"advisor.views", float64(s.views) / n, "count", clockCount},
		{"advisor.build_sim_s", s.buildSim / n, "sim_s", clockSim},
	}
}

// checker counts a run's operations and failures after setup, over
// every phase, warm-up included. A failure is an operation
// that returned an error, a repeated query whose answer changed, or an
// answer that disagrees with the oracle.
type checker struct {
	ops, failures atomic.Int64
	mu            sync.Mutex
	seen          map[int]answer // first answer to each catalogue query
	notes         []string
}

func newChecker() *checker { return &checker{seen: map[int]answer{}} }

// op counts one library call and its error, if any.
func (c *checker) op(what string, err error) {
	c.ops.Add(1)
	if err != nil {
		c.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

// observe records an answer to query idx, comparing it with earlier
// answers to the same query.
func (c *checker) observe(idx int, a answer) {
	c.ops.Add(1)
	c.mu.Lock()
	prev, ok := c.seen[idx]
	if !ok {
		c.seen[idx] = a
	}
	c.mu.Unlock()
	if ok && prev != a {
		c.fail(fmt.Sprintf("query %d answered %v, earlier %v", idx, a, prev))
	}
}

// expect compares an answer with the expected one.
func (c *checker) expect(what string, got, want answer) {
	c.ops.Add(1)
	if got != want {
		c.fail(fmt.Sprintf("%s: got %v, want %v", what, got, want))
	}
}

// verify compares the first answer to every observed query with
// oracle(idx).
func (c *checker) verify(oracle func(idx int) answer) {
	c.mu.Lock()
	seen := make(map[int]answer, len(c.seen))
	for k, v := range c.seen {
		seen[k] = v
	}
	c.mu.Unlock()
	for idx, a := range seen {
		c.expect(fmt.Sprintf("query %d vs oracle", idx), a, oracle(idx))
	}
}

// fail counts a failure and keeps the first few for the report.
func (c *checker) fail(note string) {
	c.failures.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.notes) < 5 {
		c.notes = append(c.notes, note)
	}
}

// tally sets the result's counts from the checker.
func (c *checker) tally(res *result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res.attempted = c.ops.Load()
	res.failed = c.failures.Load()
	res.notes = append(res.notes, c.notes...)
}
