package rolap

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
	"repro/internal/sketch"
)

// savedCube is the gob-serialized form of a cube: the schema, the
// dictionaries, and every materialized view, as flat row arrays (v1/v2)
// or as the per-rank sealed slice images (v3).
// This is the "pre-computation" deployment the paper motivates: build
// the cube once on the cluster, persist it, and serve OLAP queries
// from the loaded copy.
//
// Version 2 additionally records what a loaded cube needs to keep
// serving and ingesting like the original: the hardware model and
// iceberg threshold, the per-view version counters for cache keys, and
// any facts buffered but not yet applied at save time. Version 1
// snapshots still load (the new fields default to zero); they serve
// queries but reject ingest, since a v1 snapshot cannot prove it was
// not an iceberg cube.
//
// Version 3 stores each view as its per-rank columnar compressed
// slices (internal/colstore) instead of flat row arrays: files shrink
// by the compression ratio, and loading places each slice on its rank
// as an opaque block handle — no decode, no re-cut — so
// cold-load-to-first-query skips the row materialization entirely.
// Version 3 is written only while the columnar store is enabled;
// disabling it (colstore.SetEnabled(false)) writes exact v2 files.
// v1/v2 files still load under v3 code.
type savedCube struct {
	Version    int
	Dimensions []Dimension
	Dicts      [][]string
	Op         int
	Metrics    Metrics
	Views      []savedView

	// v2 fields.
	Hardware     int
	MinSupport   int64
	ViewVersions map[uint32]uint64
	PendingDims  []uint32
	PendingMeas  []int64

	// Holistic sketch section (CountDistinct / Quantile cubes): the
	// store's parameters plus every sealed sketch blob referenced by a
	// saved view measure. The measure words in the saved views are
	// sketch handles and stay valid verbatim because Import reinstalls
	// each blob at the exact slot it was exported from. Sums[i] is
	// Blobs[i]'s FNV-1a checksum, verified at load. Absent (zero) on
	// algebraic cubes and on files written before this section existed.
	SketchKind           int
	SketchFMBitmaps      int
	SketchExactThreshold int
	SketchMaxBuckets     int
	SketchArenaBudget    int
	SketchHandles        []int64
	SketchBlobs          [][]byte
	SketchSums           []uint64
}

type savedView struct {
	View  uint32
	Order []int
	// Dims/Meas hold the flat row form (v1/v2).
	Dims []uint32
	Meas []int64
	// Ranks/Slices hold the v3 columnar form: Slices[i] is the sealed
	// slice of machine rank Ranks[i]. Parallel arrays rather than a
	// rank-indexed slice because gob cannot encode nil pointers inside
	// a slice; only present ranks are stored. Sums[i] is Slices[i]'s
	// payload checksum, verified at load: structural validation alone
	// cannot catch a flipped payload bit.
	Ranks  []int
	Slices []*colstore.Slice
	Sums   []uint64
}

const (
	savedCubeVersion         = 2
	savedCubeVersionColumnar = 3
)

// Save serializes the cube (schema, dictionaries, metrics, every
// materialized view, and any buffered facts) so it can be reloaded
// with LoadCube, queried, and further maintained without rebuilding.
//
// Save is safe to call concurrently with Ingest: the pending-buffer
// copy, the version-counter snapshot, and the read of every view slice
// all happen inside one maintenance critical section, so the
// serialized cube is always a committed batch boundary — never a torn
// mixture of pre-batch and post-batch views. A columnar save reads
// each sealed slice image once and never decodes it: sketch handles
// come straight off the slices' measure columns.
func (c *Cube) Save(w io.Writer) error {
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	return c.saveLocked(w, true)
}

// saveLocked is Save's body, for callers that already hold ingMu (the
// replica tier snapshots the leader from inside its commit hook).
// includePending controls whether buffered-but-unapplied facts are
// serialized; replica bootstrap snapshots exclude them, because those
// facts will arrive at the replica later as part of a shipped batch
// and must not be double counted.
func (c *Cube) saveLocked(w io.Writer, includePending bool) error {
	columnar := colstore.Enabled()
	version := savedCubeVersion
	if columnar {
		version = savedCubeVersionColumnar
	}
	sc := savedCube{
		Version:    version,
		Dimensions: c.in.schema.Dimensions,
		Dicts:      c.in.dicts,
		Op:         int(c.op),
		Metrics:    c.Metrics(),
		Hardware:   int(c.opts.Hardware),
		MinSupport: c.opts.MinSupport,
	}
	// On a holistic cube every view measure is a sketch handle; collect
	// them (deduplicated, in deterministic order) so the sealed blobs
	// travel with the file. Algebraic cubes have none to collect.
	holistic := c.sketch != nil
	handleSet := map[int64]bool{}
	addHandle := func(m int64) {
		if m < 0 {
			handleSet[m] = true
		}
	}
	// One maintenance section across every view: holding ingMu alone is
	// not enough, because the per-view reads would otherwise
	// interleave with an engine-level slice replacement.
	c.engine.Maintain(func() error {
		sc.ViewVersions = map[uint32]uint64{}
		for v, ver := range c.engine.Versions() {
			sc.ViewVersions[uint32(v)] = ver
		}
		if includePending && c.pending != nil {
			for i := 0; i < c.pending.Len(); i++ {
				sc.PendingDims = append(sc.PendingDims, c.pending.Row(i)...)
				sc.PendingMeas = append(sc.PendingMeas, c.pending.Meas(i))
			}
		}
		for _, v := range c.views {
			sv := savedView{View: uint32(v), Order: c.orders[v]}
			if columnar {
				// v3: take the sealed per-rank slices as-is — the file
				// carries the compressed block images and their placement.
				name := core.ViewFile(v)
				for r := 0; r < c.machine.P(); r++ {
					disk := c.machine.Proc(r).Disk()
					if !disk.Has(name) || disk.Len(name) == 0 {
						continue
					}
					disk.Seal(name)
					s, _ := disk.GetSlice(name)
					sv.Ranks = append(sv.Ranks, r)
					sv.Slices = append(sv.Slices, s)
					sv.Sums = append(sv.Sums, s.Checksum())
					if holistic {
						for i := 0; i < s.Len(); i++ {
							addHandle(s.Meas(i))
						}
					}
				}
				sc.Views = append(sc.Views, sv)
				continue
			}
			rows := c.gatherViewRaw(v)
			n := rows.Len()
			sv.Dims = make([]uint32, 0, n*rows.D)
			sv.Meas = make([]int64, 0, n)
			for i := 0; i < n; i++ {
				sv.Dims = append(sv.Dims, rows.Row(i)...)
				sv.Meas = append(sv.Meas, rows.Meas(i))
				if holistic {
					addHandle(rows.Meas(i))
				}
			}
			sc.Views = append(sc.Views, sv)
		}
		return nil
	})
	if holistic {
		cfg := c.sketch.Config()
		sc.SketchKind = int(cfg.Kind)
		sc.SketchFMBitmaps = cfg.FMBitmaps
		sc.SketchExactThreshold = cfg.ExactThreshold
		sc.SketchMaxBuckets = cfg.MaxBuckets
		sc.SketchArenaBudget = cfg.ArenaBudget
		handles := make([]int64, 0, len(handleSet))
		for h := range handleSet {
			handles = append(handles, h)
		}
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		sc.SketchHandles = handles
		sc.SketchBlobs = c.sketch.Export(handles)
		sc.SketchSums = make([]uint64, len(handles))
		for i, b := range sc.SketchBlobs {
			sc.SketchSums[i] = blobSum(b)
		}
	}
	return gob.NewEncoder(w).Encode(sc)
}

// blobSum is the FNV-1a checksum persisted alongside each sketch blob:
// structural decode alone cannot catch a flipped payload bit.
func blobSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// gatherViewRaw reads view v's slices into one table directly off the
// processors' disks, without entering the engine's maintenance section
// (Maintain is not reentrant; saveLocked already holds it).
func (c *Cube) gatherViewRaw(v lattice.ViewID) *record.Table {
	rows := record.New(v.Count(), 0)
	for r := 0; r < c.machine.P(); r++ {
		if t, ok := c.machine.Proc(r).Disk().Get(core.ViewFile(v)); ok {
			rows.AppendTable(t)
		}
	}
	return rows
}

// LoadCube deserializes a cube written by Save and rehydrates the full
// query-side state the original had: the views are re-scattered over a
// simulated machine of the saved size (aligned with each partition
// root's slice boundaries, so later ingest batches merge exactly like
// on the original), the distributed query engine and its planning row
// counts are rebuilt, view version counters resume where they left
// off, and buffered facts are restored. The result answers View,
// Aggregate, GroupBy and RangeAggregate exactly like the original and
// (for v2 snapshots of non-iceberg cubes) accepts Ingest.
func LoadCube(r io.Reader) (*Cube, error) {
	var sc savedCube
	if err := gob.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("rolap: loading cube: %w", err)
	}
	if sc.Version < 1 || sc.Version > savedCubeVersionColumnar {
		return nil, fmt.Errorf("rolap: unsupported cube version %d", sc.Version)
	}
	in, err := NewInput(Schema{Dimensions: sc.Dimensions})
	if err != nil {
		return nil, err
	}
	in.dicts = sc.Dicts
	d := len(sc.Dimensions)

	p := sc.Metrics.Processors
	if p < 1 {
		p = 1
	}
	params := costmodel.Default()
	if Hardware(sc.Hardware) == ModernCluster {
		params = costmodel.Modern()
	}
	m := cluster.New(p, params)

	c := &Cube{
		in:      in,
		machine: m,
		orders:  map[lattice.ViewID]lattice.Order{},
		metrics: sc.Metrics,
		op:      record.AggOp(sc.Op),
		opts: Options{
			Processors: p,
			Hardware:   Hardware(sc.Hardware),
			MinSupport: sc.MinSupport,
		},
		loadedV1: sc.Version == 1,
		pending:  record.New(d, 0),
	}
	switch record.AggOp(sc.Op) {
	case record.OpSum:
		c.opts.Aggregate = Sum
	case record.OpMin:
		c.opts.Aggregate = Min
	case record.OpMax:
		c.opts.Aggregate = Max
	case record.OpDistinct:
		c.opts.Aggregate = CountDistinct
	case record.OpQuantile:
		c.opts.Aggregate = Quantile
	}
	if c.op.Holistic() {
		if len(sc.SketchHandles) != len(sc.SketchBlobs) || len(sc.SketchHandles) != len(sc.SketchSums) {
			return nil, fmt.Errorf("rolap: corrupt sketch section: %d handles, %d blobs, %d checksums",
				len(sc.SketchHandles), len(sc.SketchBlobs), len(sc.SketchSums))
		}
		for i, b := range sc.SketchBlobs {
			if blobSum(b) != sc.SketchSums[i] {
				return nil, fmt.Errorf("rolap: sketch blob for handle %d: checksum mismatch", sc.SketchHandles[i])
			}
		}
		st := sketch.NewStore(sketch.Config{
			Kind:           sketch.Kind(sc.SketchKind),
			FMBitmaps:      sc.SketchFMBitmaps,
			ExactThreshold: sc.SketchExactThreshold,
			MaxBuckets:     sc.SketchMaxBuckets,
			ArenaBudget:    sc.SketchArenaBudget,
		})
		if err := st.Import(sc.SketchHandles, sc.SketchBlobs); err != nil {
			return nil, fmt.Errorf("rolap: %w", err)
		}
		c.sketch = st
		c.opts.SketchExactThreshold = sc.SketchExactThreshold
		c.opts.SketchMaxBuckets = sc.SketchMaxBuckets
		c.opts.SketchArenaBudget = sc.SketchArenaBudget
	}

	tables := map[lattice.ViewID]*record.Table{}
	columnar := map[lattice.ViewID]bool{}
	for _, sv := range sc.Views {
		v := lattice.ViewID(sv.View)
		if len(sv.Ranks) > 0 || len(sv.Slices) > 0 {
			// v3 columnar view: validate each block and place it on its
			// saved rank as an opaque compressed handle — no decode.
			if len(sv.Ranks) != len(sv.Slices) {
				return nil, fmt.Errorf("rolap: corrupt saved view %v: %d ranks, %d slices", v, len(sv.Ranks), len(sv.Slices))
			}
			for i, s := range sv.Slices {
				r := sv.Ranks[i]
				if r < 0 || r >= p || s == nil {
					return nil, fmt.Errorf("rolap: corrupt saved view %v: bad rank %d", v, r)
				}
				if err := s.Validate(); err != nil {
					return nil, fmt.Errorf("rolap: saved view %v: %w", v, err)
				}
				if i < len(sv.Sums) && s.Checksum() != sv.Sums[i] {
					return nil, fmt.Errorf("rolap: saved view %v block %d: %w: checksum mismatch", v, i, colstore.ErrCorrupt)
				}
				if s.D() != len(sv.Order) {
					return nil, fmt.Errorf("rolap: corrupt saved view %v: slice has %d columns, order has %d", v, s.D(), len(sv.Order))
				}
				m.Proc(r).Disk().PutSlice(core.ViewFile(v), s)
			}
			c.views = append(c.views, v)
			c.orders[v] = lattice.Order(sv.Order)
			columnar[v] = true
			continue
		}
		dv := len(sv.Order)
		if dv > 0 && len(sv.Dims) != len(sv.Meas)*dv {
			return nil, fmt.Errorf("rolap: corrupt saved view %v", v)
		}
		t := record.New(dv, len(sv.Meas))
		for i := range sv.Meas {
			t.Append(sv.Dims[i*dv:(i+1)*dv], sv.Meas[i])
		}
		c.views = append(c.views, v)
		c.orders[v] = lattice.Order(sv.Order)
		tables[v] = t
	}
	if len(sc.PendingDims) != len(sc.PendingMeas)*d {
		return nil, fmt.Errorf("rolap: corrupt saved pending buffer")
	}
	for i := range sc.PendingMeas {
		c.pending.Append(sc.PendingDims[i*d:(i+1)*d], sc.PendingMeas[i])
	}

	// Scatter each view over the machine. Views whose partition root is
	// materialized are cut at the root's slice boundaries (each rank
	// owns the rows whose key prefix falls in its root key range — the
	// alignment invariant incremental merges rely on); the rest are cut
	// evenly. Either way the concatenation over ranks is the view's
	// global sorted order, so distributed queries, gathers, and later
	// batches behave exactly like on the never-saved original.
	for _, v := range c.views {
		if columnar[v] {
			continue // already placed rank-by-rank above
		}
		t := tables[v]
		cuts := sliceCuts(v, t, c.orders, tables, d, p)
		for r := 0; r < p; r++ {
			if cuts[r+1] > cuts[r] {
				m.Proc(r).Disk().Put(core.ViewFile(v), t.Sub(cuts[r], cuts[r+1]))
			}
		}
	}

	// Planning row counts are derived from the placed storage, not
	// tracked separately — one source of truth for slice lengths.
	rows := map[lattice.ViewID]int64{}
	for _, v := range c.views {
		rows[v] = core.ViewGlobalRows(m, v)
	}

	c.engine = queryengine.New(m, c.orders, rows, c.op)
	if c.sketch != nil {
		c.engine.SetSketch(c.sketch)
	}
	if len(sc.ViewVersions) > 0 {
		vers := make(map[lattice.ViewID]uint64, len(sc.ViewVersions))
		for v, ver := range sc.ViewVersions {
			vers[lattice.ViewID(v)] = ver
		}
		c.engine.RestoreVersions(vers)
	}
	return c, nil
}

// sliceCuts returns the p+1 row offsets that split view v's global
// table into per-rank slices. When v's partition root is materialized
// and v's order is a prefix of the root's, rank r's slice holds the
// rows whose (truncated) key is ≤ the last key of the root's rank-r
// slice; the root itself gets exactly even cuts from the same rule
// (its keys are unique), so prefix views stay boundary-aligned with
// their root. Otherwise cuts are even.
func sliceCuts(v lattice.ViewID, t *record.Table, orders map[lattice.ViewID]lattice.Order, tables map[lattice.ViewID]*record.Table, d, p int) []int {
	n := t.Len()
	cuts := make([]int, p+1)
	cuts[p] = n

	root := lattice.Root(lattice.PartitionOf(v, d), d)
	rootT, ok := tables[root]
	rootOrder, okOrd := orders[root]
	if ok && okOrd && orders[v].IsPrefixOf(rootOrder) && rootT.Len() > 0 {
		rn := rootT.Len()
		cols := len(orders[v])
		for r := 1; r < p; r++ {
			idx := r * rn / p
			if idx == 0 {
				cuts[r] = 0
				continue
			}
			key := rootT.RowCopy(idx - 1)[:cols]
			cuts[r] = record.UpperBound(t, key)
		}
		return cuts
	}
	for r := 1; r < p; r++ {
		cuts[r] = r * n / p
	}
	return cuts
}
