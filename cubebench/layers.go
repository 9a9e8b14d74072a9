package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mergepart"
	"repro/internal/record"
)

// procs is the simulated machine size of every workload.
const procs = 4

// kernelReps is how many times the traced run times each kernel.
const kernelReps = 3

// table converts the facts to a record.Table. Every schema lists its
// dimensions by decreasing cardinality, so schema order is the
// library's internal order.
func (f *facts) table() *record.Table {
	t := record.New(f.d(), f.len())
	for i := 0; i < f.len(); i++ {
		t.Append(f.row(i), f.meas[i])
	}
	return t
}

// layerProbe holds the per-layer figures the traced run measures
// directly on internal layers, outside the profiled workload window.
type layerProbe struct {
	met                        core.Metrics
	sortRowsPerS, mergeRowsPer float64
	encodeMBPerS, decodeMBPerS float64
}

// probeLayers builds the full cube of f with core.BuildCube, the same
// configuration rolap.Build uses, to read the counters the public
// Metrics do not carry (the Procedure 3 case mix); then times the
// record sort and merge kernels on f's D0-root projection and the
// column codec on its base view.
func probeLayers(f *facts, tr *tracer) (layerProbe, error) {
	var lp layerProbe
	t := f.table()
	m := cluster.New(procs, costmodel.Default())
	n := t.Len()
	for r := 0; r < procs; r++ {
		m.Proc(r).Disk().Put("raw", t.Sub(r*n/procs, (r+1)*n/procs))
	}
	t0 := time.Now()
	met, err := core.BuildCube(m, "raw", core.Config{D: f.d(), Cards: f.cards, Agg: record.OpSum})
	tr.record(0, "core.BuildCube", "", t0, time.Now())
	if err != nil {
		return lp, fmt.Errorf("core.BuildCube: %w", err)
	}
	lp.met = met
	runtime.GC()

	// The D0 partition's root holds every dimension in schema order,
	// so its projection of the facts is the fact table itself.
	var sorts, merges []float64
	for rep := 0; rep < kernelReps; rep++ {
		parts := make([]*record.Table, procs)
		for r := range parts {
			parts[r] = t.Sub(r*n/procs, (r+1)*n/procs)
		}
		t0 := time.Now()
		for _, p := range parts {
			s0 := time.Now()
			p.Sort()
			tr.record(0, "record.Table.Sort", "", s0, time.Now())
		}
		sorts = append(sorts, time.Since(t0).Seconds())
		t1 := time.Now()
		merged := record.MergeSortedAggregateOp(parts, record.OpSum)
		t2 := time.Now()
		tr.record(0, "record.MergeSortedAggregateOp", "", t1, t2)
		merges = append(merges, t2.Sub(t1).Seconds())
		if merged.Len() == 0 {
			return lp, fmt.Errorf("record merge returned no rows")
		}
	}
	lp.sortRowsPerS = float64(n) / median(sorts)
	lp.mergeRowsPer = float64(n) / median(merges)

	// The largest view is the base view: the facts sorted and
	// aggregated on every dimension.
	base := record.SortAggregateOp(t, record.OpSum)
	mb := float64(base.Bytes()) / 1e6
	var encs, decs []float64
	for rep := 0; rep < kernelReps; rep++ {
		t0 := time.Now()
		s := colstore.Encode(base)
		t1 := time.Now()
		got := s.Decode()
		t2 := time.Now()
		tr.record(0, "colstore.Encode", "", t0, t1)
		tr.record(0, "colstore.Decode", "", t1, t2)
		encs = append(encs, t1.Sub(t0).Seconds())
		decs = append(decs, t2.Sub(t1).Seconds())
		if got.Len() != base.Len() {
			return lp, fmt.Errorf("colstore decode returned %d rows, want %d", got.Len(), base.Len())
		}
	}
	lp.encodeMBPerS = mb / median(encs)
	lp.decodeMBPerS = mb / median(decs)
	return lp, nil
}

// metrics renders the probe as per-layer metrics.
func (lp layerProbe) metrics() []metric {
	met := lp.met
	return []metric{
		{"core.partition_sim_s", met.PhaseSeconds["partition"], "sim_s", clockSim},
		{"core.plan_sim_s", met.PhaseSeconds["plan"], "sim_s", clockSim},
		{"core.build_sim_s", met.PhaseSeconds["build"], "sim_s", clockSim},
		{"core.merge_sim_s", met.PhaseSeconds["merge"], "sim_s", clockSim},
		{"cluster.comm_sim_s", met.CommSeconds, "sim_s", clockSim},
		{"cluster.bytes_moved", float64(met.BytesMoved), "bytes", clockBytes},
		{"samplesort.shifts", float64(met.Shifts), "count", clockCount},
		{"pipesort.output_rows", float64(met.OutputRows), "count", clockCount},
		{"mergepart.merge_bytes", float64(met.BytesByPhase["merge"]), "bytes", clockBytes},
		{"mergepart.case1_views", float64(met.CaseCounts[mergepart.CasePrefix]), "count", clockCount},
		{"mergepart.case2_views", float64(met.CaseCounts[mergepart.CaseOverlap]), "count", clockCount},
		{"mergepart.case3_views", float64(met.CaseCounts[mergepart.CaseGlobalSort]), "count", clockCount},
		{"colstore.stored_bytes", float64(met.OutputBytesStored), "bytes", clockBytes},
		{"colstore.row_bytes", float64(met.OutputBytes), "bytes", clockBytes},
		{"record.sort_rows_per_s", lp.sortRowsPerS, "rows/s", clockWall},
		{"record.merge_rows_per_s", lp.mergeRowsPer, "rows/s", clockWall},
		{"colstore.encode_mb_per_s", lp.encodeMBPerS, "MB/s", clockWall},
		{"colstore.decode_mb_per_s", lp.decodeMBPerS, "MB/s", clockWall},
	}
}

// selfModules are the modules whose self CPU the traced run reports:
// profile CPU charged to the module's innermost frame on each stack.
// Modules not listed count toward other.self_cpu_s, so the self shares
// always add up to the whole profile.
var selfModules = []string{
	"advisor", "cluster", "colstore", "core", "extsort", "ingest", "lattice",
	"mergepart", "persist", "pipesort", "queryengine", "record", "rolap",
	"sample", "samplesort", "server", "simdisk", modRuntime, modBench,
}

// inclModules are the modules whose inclusive CPU is reported: samples
// with the module anywhere on the stack. These layers mostly drive
// other layers' kernels, so their self share understates them.
var inclModules = []string{"extsort", "mergepart", "pipesort", "samplesort"}

// profileMetrics renders a CPU attribution over ops workload
// operations as per-layer metrics, each per operation. The profiled
// half runs for a fixed time with the CPUs busy, so CPU totals would
// barely move when a layer gets faster; CPU per operation does.
func profileMetrics(a attribution, gcCycles uint32, ops int) []metric {
	n := float64(max(ops, 1))
	var out []metric
	named := 0.0
	for _, m := range selfModules {
		out = append(out, metric{m + ".self_cpu_s", a.self[m] / n, "s/op", clockWall})
		named += a.self[m]
	}
	for _, m := range inclModules {
		out = append(out, metric{m + ".incl_cpu_s", a.incl[m] / n, "s/op", clockWall})
	}
	return append(out,
		metric{modOther + ".self_cpu_s", (a.total - named) / n, "s/op", clockWall},
		metric{"runtime.gc_cpu_s", a.gc / n, "s/op", clockWall},
		metric{"runtime.gc_cycles", float64(gcCycles) / n, "count/op", clockCount},
		metric{"trace.ops", float64(ops), "count", clockCount},
	)
}
