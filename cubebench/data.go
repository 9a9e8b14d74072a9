package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro"
	"repro/internal/gen"
)

// facts is a generated fact table kept beside the cube, in schema
// order, so the oracle can answer any query by a direct scan.
type facts struct {
	cards []int
	names []string
	dims  []uint32 // row-major, len(cards) values per row
	meas  []int64
}

func (f *facts) d() int   { return len(f.cards) }
func (f *facts) len() int { return len(f.meas) }

func (f *facts) row(i int) []uint32 { return f.dims[i*f.d() : (i+1)*f.d()] }

func (f *facts) schema() rolap.Schema {
	s := rolap.Schema{Dimensions: make([]rolap.Dimension, f.d())}
	for j := range f.cards {
		s.Dimensions[j] = rolap.Dimension{Name: f.names[j], Cardinality: f.cards[j]}
	}
	return s
}

// input loads the facts into a fresh rolap.Input.
func (f *facts) input() (*rolap.Input, error) {
	in, err := rolap.NewInput(f.schema())
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.len(); i++ {
		if err := in.AddRow(f.row(i), f.meas[i]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// append adds rows (schema order) to the oracle's table.
func (f *facts) append(rows [][]uint32, meas []int64) {
	for i, r := range rows {
		f.dims = append(f.dims, r...)
		f.meas = append(f.meas, meas[i])
	}
}

// rowSource is a counter-based row generator: row i is a pure
// function of the generator's seed and i.
type rowSource interface {
	Row(i int, buf []uint32)
}

// measureOf is fact i's measure, a pure function of (seed, i) in
// [1, 100], so sums differ from counts and a dropped or doubled fact
// changes answers.
func measureOf(seed int64, i int) int64 {
	return int64(1 + mix64(uint64(seed)^0x6d65617375726573^uint64(i)*0x9e3779b97f4a7c15)%100)
}

// makeFacts materializes rows [lo, hi) of src.
func makeFacts(src rowSource, seed int64, names []string, cards []int, lo, hi int) *facts {
	f := &facts{
		cards: cards,
		names: names,
		dims:  make([]uint32, 0, (hi-lo)*len(cards)),
		meas:  make([]int64, 0, hi-lo),
	}
	buf := make([]uint32, len(cards))
	for i := lo; i < hi; i++ {
		src.Row(i, buf)
		f.dims = append(f.dims, buf...)
		f.meas = append(f.meas, measureOf(seed, i))
	}
	return f
}

// batch returns rows [lo, hi) of src as an ingest batch.
func batch(src rowSource, seed int64, d, lo, hi int) ([][]uint32, []int64) {
	rows := make([][]uint32, hi-lo)
	meas := make([]int64, hi-lo)
	for i := lo; i < hi; i++ {
		r := make([]uint32, d)
		src.Row(i, r)
		rows[i-lo] = r
		meas[i-lo] = measureOf(seed, i)
	}
	return rows, meas
}

// paperNames and paperFacts give the paper's d=8 data set: uniform
// codes over the cardinalities 256,128,64,32,16,8,6,6.
var paperNames = []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}

func paperFacts(seed int64, n int) *facts {
	spec := gen.Spec{N: n, D: 8, Cards: gen.PaperCards(), Seed: seed}
	return makeFacts(gen.New(spec), seed, paperNames, spec.Cards, 0, n)
}

// retailNames and retailCards are the d=6 retail schema of the mixed
// workload.
var (
	retailNames = []string{"store", "product", "month", "region", "channel", "promo"}
	retailCards = []int{32, 16, 12, 8, 4, 3}
)

// hotRetail is the mixed workload's skewed row stream: 60% of rows on
// the 2 hottest stores and month tied to product. Rows [0, mixedFacts)
// are the initial facts; the rows after them feed the ingest batches.
func hotRetail(seed int64) *gen.HotGenerator {
	return gen.NewHot(gen.HotSpec{
		Base:    gen.Spec{N: mixedFacts + mixedBatches*mixedBatch, D: 6, Cards: retailCards, Seed: seed},
		HotDim:  0,
		HotKeys: 2,
		HotMass: 0.6,
		Correlations: []gen.Correlation{
			{Dim: 2, Anchor: 1, Strength: 0.9},
		},
	})
}

// Query kinds.
const (
	kindGroupBy = 'g'
	kindPoint   = 'a'
	kindRange   = 'r'
)

// query is one catalogue entry. dims holds the group-by dimensions
// (kindGroupBy) or the key dimensions (kindPoint, kindRange) as schema
// indexes; filters are equality filters of a group-by; lo and hi the
// inclusive key bounds of a point (lo == hi) or range aggregate.
type query struct {
	kind    byte
	dims    []int
	filters []filter
	lo, hi  []uint32
}

type filter struct {
	dim int
	val uint32
}

// streamSeed fixes the order of every workload's query stream; the
// run's seed varies the facts and the ingest batches. On mixed, the
// stream steers the advisor, whose choices then set the cost of every
// later read: with a stream drawn from the run's seed, the read p50
// moved by ~10% and the allocation per read by ~4% between seeds.
const streamSeed = 1

// mixShares is a catalogue's query-kind mix, in percent.
type mixShares struct{ groupBy, point int }

// catalogue draws n distinct-by-position queries. Group-bys take 1 or
// 2 dimensions and 0 to 2 filters on other dimensions; point and range
// aggregates key 1 to 3 and 1 to 2 dimensions.
//
// Query i (its kind, dimensions and values) is a function of i alone.
// Shape sets a query's cost, and on skewed facts so do its values: a
// filter on a hot store scans many times the rows of one on a cold
// store. The Zipf stream sends most traffic to the first few
// positions, so fixing them keeps one workload's mix of cheap and
// costly queries the same under every seed.
func catalogue(cards []int, n int, shares mixShares) []query {
	qs := make([]query, n)
	for i := range qs {
		shape := rand.New(rand.NewPCG(0x7368617065, uint64(i)))
		rng := rand.New(rand.NewPCG(0x76616c7565, uint64(i)^0x7175657279))
		perm := shape.Perm(len(cards))
		roll := shape.IntN(100)
		switch {
		case roll < shares.groupBy:
			ng := 1 + shape.IntN(2)
			nf := shape.IntN(3)
			q := query{kind: kindGroupBy, dims: perm[:ng]}
			for _, j := range perm[ng : ng+nf] {
				q.filters = append(q.filters, filter{dim: j, val: uint32(rng.IntN(cards[j]))})
			}
			qs[i] = q
		case roll < shares.groupBy+shares.point:
			nk := 1 + shape.IntN(3)
			q := query{kind: kindPoint, dims: perm[:nk]}
			for _, j := range q.dims {
				v := uint32(rng.IntN(cards[j]))
				q.lo = append(q.lo, v)
				q.hi = append(q.hi, v)
			}
			qs[i] = q
		default:
			nk := 1 + shape.IntN(2)
			q := query{kind: kindRange, dims: perm[:nk]}
			for _, j := range q.dims {
				a, b := uint32(rng.IntN(cards[j])), uint32(rng.IntN(cards[j]))
				if a > b {
					a, b = b, a
				}
				q.lo = append(q.lo, a)
				q.hi = append(q.hi, b)
			}
			qs[i] = q
		}
	}
	return qs
}

// answer is an order-independent digest of a query result: the group
// count and a commutative hash over (group key, measure) pairs. Point
// and range aggregates have one pseudo-group holding the value.
type answer struct {
	groups int
	sum    uint64
}

func (a answer) String() string { return fmt.Sprintf("{groups %d, digest %016x}", a.groups, a.sum) }

// rowHash hashes one group's key and measure.
func rowHash(key []uint32, m int64) uint64 {
	h := uint64(0x6a09e667f3bcc908)
	for _, v := range key {
		h = mix64(h ^ uint64(v))
	}
	return mix64(h ^ uint64(m))
}

func scalarAnswer(v int64) answer { return answer{groups: 1, sum: rowHash(nil, v)} }

// viewAnswer digests a group-by result.
func viewAnswer(v *rolap.View) answer {
	a := answer{groups: v.Len()}
	for i := 0; i < v.Len(); i++ {
		key, m := v.Row(i)
		a.sum += rowHash(key, m)
	}
	return a
}

// oracle answers q by scanning every fact: a map-based group-by, or a
// filtered sum for point and range aggregates.
func (f *facts) oracle(q query) answer {
	switch q.kind {
	case kindGroupBy:
		groups := map[string]int64{}
		keys := map[string][]uint32{}
		buf := make([]byte, 0, 4*len(q.dims))
	rows:
		for i := 0; i < f.len(); i++ {
			r := f.row(i)
			for _, fl := range q.filters {
				if r[fl.dim] != fl.val {
					continue rows
				}
			}
			buf = buf[:0]
			for _, j := range q.dims {
				v := r[j]
				buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			k := string(buf)
			if _, ok := keys[k]; !ok {
				key := make([]uint32, len(q.dims))
				for x, j := range q.dims {
					key[x] = r[j]
				}
				keys[k] = key
			}
			groups[k] += f.meas[i]
		}
		a := answer{groups: len(groups)}
		for k, m := range groups {
			a.sum += rowHash(keys[k], m)
		}
		return a
	default:
		var total int64
	facts:
		for i := 0; i < f.len(); i++ {
			r := f.row(i)
			for x, j := range q.dims {
				if r[j] < q.lo[x] || r[j] > q.hi[x] {
					continue facts
				}
			}
			total += f.meas[i]
		}
		return scalarAnswer(total)
	}
}

// ask runs q through the cube's own query methods and digests the
// result.
func ask(c *rolap.Cube, f *facts, q query) (answer, error) {
	names := f.dimNames(q.dims)
	if q.kind == kindGroupBy {
		v, err := c.GroupBy(names, f.filterMap(q.filters))
		if err != nil {
			return answer{}, err
		}
		return viewAnswer(v), nil
	}
	var v int64
	var err error
	if q.kind == kindPoint {
		v, err = c.Aggregate(names, q.lo)
	} else {
		v, err = c.RangeAggregate(names, q.lo, q.hi)
	}
	if err != nil {
		return answer{}, err
	}
	return scalarAnswer(v), nil
}

// served is a server's raw result: a group-by's view, or an
// aggregate's value. Digesting walks every group, so callers digest
// only the answers they check, after timing the call.
type served struct {
	view  *rolap.View
	value int64
}

func (s served) answer() answer {
	if s.view != nil {
		return viewAnswer(s.view)
	}
	return scalarAnswer(s.value)
}

// serve runs q through a rolap.Server.
func serve(ctx context.Context, s *rolap.Server, f *facts, q query) (served, rolap.QueryMetrics, error) {
	names := f.dimNames(q.dims)
	switch q.kind {
	case kindGroupBy:
		v, qm, err := s.GroupBy(ctx, names, f.filterMap(q.filters))
		return served{view: v}, qm, err
	case kindPoint:
		v, qm, err := s.Aggregate(ctx, names, q.lo)
		return served{value: v}, qm, err
	default:
		v, qm, err := s.RangeAggregate(ctx, names, q.lo, q.hi)
		return served{value: v}, qm, err
	}
}

func (f *facts) dimNames(js []int) []string {
	out := make([]string, len(js))
	for x, j := range js {
		out[x] = f.names[j]
	}
	return out
}

func (f *facts) filterMap(fs []filter) map[string]uint32 {
	m := make(map[string]uint32, len(fs))
	for _, fl := range fs {
		m[f.names[fl.dim]] = fl.val
	}
	return m
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
