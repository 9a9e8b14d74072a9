package rolap

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
)

// GroupBy computes an ad-hoc OLAP query against the cube: group by the
// given dimensions, restricted by equality filters on other
// dimensions, aggregating with the cube's operator. The query is
// answered from the smallest materialized view containing all
// referenced dimensions — the standard ROLAP rewrite. Roll-up and
// drill-down are GroupBy with fewer or more dimensions.
//
// The query executes where the data lives, on built and loaded cubes
// alike: every processor filters, projects, and partially aggregates
// its own slice of the source view, and the partial aggregates are
// merged — no view is gathered onto one rank.
//
// The result is a computed View (not materialized on the cluster):
// Attributes follow the order of dims, rows are sorted.
//
// On holistic cubes (CountDistinct, Quantile) the measures are served
// estimates and the View's Estimated flag is set; Quantile cubes
// report the median — use GroupByPercentile for another rank.
func (c *Cube) GroupBy(dims []string, filters map[string]uint32) (*View, error) {
	return c.groupByAt(dims, filters, defaultPercentile)
}

// GroupByPercentile is GroupBy serving the p-th percentile (rank pct
// in [0, 1]) of each group's value distribution instead of the
// median. Only valid on Quantile cubes.
func (c *Cube) GroupByPercentile(dims []string, filters map[string]uint32, pct float64) (*View, error) {
	if c.opts.Aggregate != Quantile {
		return nil, fmt.Errorf("rolap: GroupByPercentile requires a Quantile cube (have %v)", c.opts.Aggregate)
	}
	if pct < 0 || pct > 1 {
		return nil, fmt.Errorf("rolap: percentile rank %v outside [0, 1]", pct)
	}
	return c.groupByAt(dims, filters, pct)
}

func (c *Cube) groupByAt(dims []string, filters map[string]uint32, pct float64) (*View, error) {
	v, _, err := c.groupByVia(c.execDirect, nil, dims, filters, pct)
	return v, err
}

// plannedExec executes one planned query. Cube queries run it straight
// on the engine (execDirect); Server queries run it through the cache
// and admission pipeline (Server.exec).
type plannedExec func(q queryengine.Query) (*record.Table, QueryMetrics, error)

// execDirect runs a planned query on the engine with no cache and no
// admission control.
func (c *Cube) execDirect(q queryengine.Query) (*record.Table, QueryMetrics, error) {
	rows, _, err := c.engine.Execute(q)
	return rows, QueryMetrics{}, err
}

// runPlanned plans a query and executes it through exec. The advisor
// can retire a plan's source view between planning and execution; a
// stale plan is rejected (never silently misread) and simply replanned
// against the current view set, each replan counted in replans when it
// is non-nil.
func runPlanned(exec plannedExec, replans *atomic.Int64, plan func() (queryengine.Query, error)) (*record.Table, QueryMetrics, error) {
	for attempt := 0; ; attempt++ {
		var rows *record.Table
		var qm QueryMetrics
		q, err := plan()
		if err == nil {
			rows, qm, err = exec(q)
		}
		if err == nil || attempt >= staleReplanLimit || !errors.Is(err, queryengine.ErrStalePlan) {
			return rows, qm, err
		}
		if replans != nil {
			replans.Add(1)
		}
	}
}

// groupByVia plans and executes a group-by through exec.
func (c *Cube) groupByVia(exec plannedExec, replans *atomic.Int64, dims []string, filters map[string]uint32, pct float64) (*View, QueryMetrics, error) {
	rows, qm, err := runPlanned(exec, replans, func() (queryengine.Query, error) {
		return c.planQuery(dims, filters, pct)
	})
	if err != nil {
		return nil, qm, err
	}
	return &View{
		Attributes: append([]string(nil), dims...),
		Estimated:  c.op.Holistic(),
		order:      queryOrder(c, dims),
		rows:       rows,
	}, qm, nil
}

// staleReplanLimit bounds replan retries after ErrStalePlan. Each
// retry replans against the then-current view set; the set always
// contains a cover for any answerable query (retirement requires a
// surviving superset), so one retry normally suffices.
const staleReplanLimit = 4

// planQuery validates a GroupBy request and plans its distributed
// execution: dimension names are resolved to internal indices, filters
// become per-dimension equality bounds, and the engine picks the
// source view and column layout.
func (c *Cube) planQuery(dims []string, filters map[string]uint32, pct float64) (queryengine.Query, error) {
	if _, err := c.in.viewOf(dims); err != nil {
		return queryengine.Query{}, err
	}
	group := make([]int, len(dims))
	for k, name := range dims {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return queryengine.Query{}, err
		}
		group[k] = one.Dims()[0]
	}
	bounds := make(map[int][2]uint32, len(filters))
	for name, val := range filters {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return queryengine.Query{}, err
		}
		bounds[one.Dims()[0]] = [2]uint32{val, val}
	}
	q, err := c.engine.NewQuery(group, bounds)
	if err != nil {
		return queryengine.Query{}, fmt.Errorf("rolap: %w", err)
	}
	if c.op.Holistic() {
		q.Percentile = pct
	}
	return q, nil
}

// queryOrder builds the internal order matching the user's dims
// sequence (for Decode-style helpers on computed views).
func queryOrder(c *Cube, dims []string) lattice.Order {
	o := make(lattice.Order, len(dims))
	for k, name := range dims {
		v, _ := c.in.viewOf([]string{name})
		o[k] = v.Dims()[0]
	}
	return o
}

// RangeAggregate aggregates all groups of the named view whose
// attribute values fall within [lo[k], hi[k]] for every dimension
// (inclusive on both ends). It is answered from the exact materialized
// view when available, else the smallest superset. Only meaningful for
// Sum cubes when ranges span groups; for Min/Max cubes it returns the
// min/max over the range.
//
// The range is evaluated in place: each processor combines its slice's
// matching rows (binary-searching to the run when the range covers the
// sort-order prefix) and the partial aggregates are merged.
func (c *Cube) RangeAggregate(dims []string, lo, hi []uint32) (int64, error) {
	m, _, err := c.rangeVia(c.execDirect, nil, dims, lo, hi)
	return m, err
}

// rangeVia plans and executes a range aggregate through exec.
func (c *Cube) rangeVia(exec plannedExec, replans *atomic.Int64, dims []string, lo, hi []uint32) (int64, QueryMetrics, error) {
	rows, qm, err := runPlanned(exec, replans, func() (queryengine.Query, error) {
		return c.planRange(dims, lo, hi)
	})
	if err != nil || rows.Len() == 0 {
		return 0, qm, err
	}
	return rows.Meas(0), qm, nil
}

// planRange validates a RangeAggregate request and plans its
// distributed execution: all matching rows collapse into one
// zero-dimension group.
func (c *Cube) planRange(dims []string, lo, hi []uint32) (queryengine.Query, error) {
	if len(dims) != len(lo) || len(dims) != len(hi) {
		return queryengine.Query{}, fmt.Errorf("rolap: dims/lo/hi length mismatch")
	}
	for k := range lo {
		if lo[k] > hi[k] {
			return queryengine.Query{}, fmt.Errorf("rolap: empty range on %q", dims[k])
		}
	}
	if _, err := c.in.viewOf(dims); err != nil {
		return queryengine.Query{}, err
	}
	bounds := make(map[int][2]uint32, len(dims))
	for k, name := range dims {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return queryengine.Query{}, err
		}
		bounds[one.Dims()[0]] = [2]uint32{lo[k], hi[k]}
	}
	q, err := c.engine.NewQuery(nil, bounds)
	if err != nil {
		return queryengine.Query{}, fmt.Errorf("rolap: %w", err)
	}
	if c.op.Holistic() {
		q.Percentile = defaultPercentile
	}
	return q, nil
}

// sourceViewNames renders a ViewID as its sorted user dimension names
// (the form QueryMetrics reports).
func (c *Cube) sourceViewNames(v lattice.ViewID) []string {
	names := c.in.namesOf(lattice.Canonical(v))
	sort.Strings(names)
	return names
}
