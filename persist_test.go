package rolap

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/lattice"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	in, oracle := loadRandom(t, 1200, 31)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Processors() != 3 {
		t.Fatalf("Processors = %d", loaded.Processors())
	}
	if len(loaded.Views()) != len(cube.Views()) {
		t.Fatalf("views %d != %d", len(loaded.Views()), len(cube.Views()))
	}
	// Queries agree with the original and the oracle.
	queries := []struct {
		dims []string
		key  []uint32
	}{
		{[]string{"store"}, []uint32{5}},
		{[]string{"month", "channel"}, []uint32{2, 1}},
		{nil, nil},
	}
	for _, q := range queries {
		a, err1 := cube.Aggregate(q.dims, q.key)
		b, err2 := loaded.Aggregate(q.dims, q.key)
		if err1 != nil || err2 != nil || a != b || a != oracle(q.dims, q.key) {
			t.Fatalf("query %v: orig %d (%v), loaded %d (%v)", q.dims, a, err1, b, err2)
		}
	}
	// GroupBy works on loaded cubes too.
	vw, err := loaded.GroupBy([]string{"product"}, map[string]uint32{"channel": 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if want := oracle([]string{"product", "channel"}, []uint32{key[0], 0}); m != want {
			t.Fatalf("loaded GroupBy product %d = %d, want %d", key[0], m, want)
		}
	}
	// Metrics survive.
	if loaded.Metrics().OutputRows != cube.Metrics().OutputRows {
		t.Fatal("metrics lost")
	}
}

func TestSaveLoadWithDictionaries(t *testing.T) {
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Dictionaries travel with the snapshot: query by decoded name via
	// the loaded cube's input.
	vw, err := loaded.View([]string{"region"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if loadedName := loadedDecode(loaded, "region", key[0]); loadedName == "east" && m == 330 {
			found = true
		}
	}
	if !found {
		t.Fatal("east=330 not found after reload")
	}
}

// loadedDecode decodes through the loaded cube's internal input.
func loadedDecode(c *Cube, dim string, code uint32) string {
	return c.in.Decode(dim, code)
}

func TestLoadCubeErrors(t *testing.T) {
	if _, err := LoadCube(strings.NewReader("not a gob")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(savedCube{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCube(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestColumnarSaveReadsEachSliceOnce is the regression test for Save
// decoding the whole cube: on an algebraic cube a columnar Save must
// read every sealed view slice exactly once, at its compressed size,
// and nothing else — no second, decoding read of every view.
func TestColumnarSaveReadsEachSliceOnce(t *testing.T) {
	in, _ := loadRandom(t, 1500, 43)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := cube.machine.P()
	before := make([]int64, p)
	for r := 0; r < p; r++ {
		before[r] = cube.machine.Proc(r).Disk().Stats().BytesRead
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		disk := cube.machine.Proc(r).Disk()
		var want int64
		for _, v := range cube.views {
			name := core.ViewFile(v)
			if !disk.Has(name) || disk.Len(name) == 0 {
				continue
			}
			if !disk.Sealed(name) {
				t.Fatalf("rank %d: view %v not sealed after Save", r, v)
			}
			want += int64(disk.StoredBytes(name))
		}
		if want == 0 {
			t.Fatalf("rank %d holds no view bytes", r)
		}
		if got := disk.Stats().BytesRead - before[r]; got != want {
			t.Fatalf("rank %d: Save read %d bytes, want the %d sealed view bytes", r, got, want)
		}
	}
}

// saveLoad round-trips a cube through the gob snapshot.
func saveLoad(t *testing.T, c *Cube) *Cube {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSaveLoadRehydratesQueryState is the regression test for the
// loader leaving query-side state unhydrated: a loaded cube must have
// a live distributed engine (the only query path), usable prefix
// indexes, planning row counts that make the engine pick the same
// source views as on the original, and serving must work — all
// without rebuilding.
func TestSaveLoadRehydratesQueryState(t *testing.T) {
	in, oracle := loadRandom(t, 1500, 37)
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, cube)

	if loaded.machine == nil || loaded.engine == nil {
		t.Fatal("loaded cube has no rehydrated machine/engine")
	}
	if loaded.machine.P() != 4 {
		t.Fatalf("rehydrated machine has %d procs, want 4", loaded.machine.P())
	}
	// Every rank concatenation reproduces the original view, and the
	// planning row counts drive the same source-view choices.
	checkCubesEqual(t, loaded, cube)
	for _, dims := range [][]string{{"store"}, {"month", "channel"}, {"product", "store"}} {
		want, err := cube.engine.PickSource(mustView(t, cube, dims))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.engine.PickSource(mustView(t, loaded, dims))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("planner picks %v on loaded cube, %v on original", got, want)
		}
	}

	// A server over the loaded cube answers from the prefix index.
	s, err := loaded.NewServer(ServerOptions{})
	if err != nil {
		t.Fatalf("loaded cube cannot serve: %v", err)
	}
	ctx := context.Background()
	got, qm, err := s.Aggregate(ctx, []string{"store"}, []uint32{5})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle([]string{"store"}, []uint32{5}); got != want {
		t.Fatalf("served aggregate %d, oracle %d", got, want)
	}
	if !qm.IndexUsed {
		t.Fatalf("prefix index not rebuilt on loaded cube: %+v", qm)
	}
}

func mustView(t *testing.T, c *Cube, dims []string) lattice.ViewID {
	t.Helper()
	v, err := c.in.viewOf(dims)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSaveLoadThenIngest checks the loader's root-aligned scatter: a
// batch ingested into a loaded cube must land exactly where a scratch
// rebuild on all the facts does.
func TestSaveLoadThenIngest(t *testing.T) {
	rows, meas := randomFacts(900, 97)
	base := 700
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 3})
	loaded := saveLoad(t, cube)

	im, err := loaded.Ingest(rows[base:], meas[base:])
	if err != nil {
		t.Fatal(err)
	}
	if im.Rows != int64(len(rows)-base) || im.DeltaMergeSeconds <= 0 {
		t.Fatalf("batch metrics implausible: %+v", im)
	}
	fresh := buildFromFacts(t, rows, meas, Options{Processors: 3})
	checkCubesEqual(t, loaded, fresh)
	if got, want := loaded.Metrics().OutputRows, fresh.Metrics().OutputRows; got != want {
		t.Fatalf("OutputRows %d after load+ingest, fresh build %d", got, want)
	}
	// Ingesting into the original and into its loaded copy agree too.
	if _, err := cube.Ingest(rows[base:], meas[base:]); err != nil {
		t.Fatal(err)
	}
	checkCubesEqual(t, loaded, cube)
}

// TestSaveLoadPendingAndVersions: buffered facts and view version
// counters survive the round trip.
func TestSaveLoadPendingAndVersions(t *testing.T) {
	rows, meas := randomFacts(800, 113)
	base := 600
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})

	// One applied batch bumps versions; a few buffered rows stay pending.
	if _, err := cube.Ingest(rows[base:base+100], meas[base:base+100]); err != nil {
		t.Fatal(err)
	}
	g, err := cube.NewIngester(IngesterOptions{MaxRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := base + 100; i < len(rows); i++ {
		if _, _, err := g.Add(rows[i], meas[i]); err != nil {
			t.Fatal(err)
		}
	}
	loaded := saveLoad(t, cube)

	if got, want := loaded.Pending(), cube.Pending(); got != want || got != len(rows)-base-100 {
		t.Fatalf("pending %d after load, want %d", got, want)
	}
	origVers := cube.engine.Versions()
	loadVers := loaded.engine.Versions()
	for v, ver := range origVers {
		if ver > 0 && loadVers[v] != ver {
			t.Fatalf("view %v version %d after load, want %d", v, loadVers[v], ver)
		}
	}
	// Flushing the restored buffer completes the stream identically to
	// a scratch rebuild on everything.
	if _, err := loaded.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := buildFromFacts(t, rows, meas, Options{Processors: 2})
	checkCubesEqual(t, loaded, fresh)
}

// TestSaveDuringIngestNotTorn: Save racing a concurrent Ingest must
// serialize at a committed batch boundary. Every snapshot taken while
// batches land must reload to a cube in which all views agree on the
// grand total, and that total is one of the committed prefix totals —
// never a torn mixture of pre- and post-batch slices.
func TestSaveDuringIngestNotTorn(t *testing.T) {
	rows, meas := randomFacts(700, 311)
	base := 300
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})

	// Totals at every committed boundary.
	allowed := map[int64]bool{}
	var total int64
	for _, m := range meas[:base] {
		total += m
	}
	allowed[total] = true
	const batch = 50
	for lo := base; lo < len(rows); lo += batch {
		for _, m := range meas[lo : lo+batch] {
			total += m
		}
		allowed[total] = true
	}

	done := make(chan error, 1)
	go func() {
		for lo := base; lo < len(rows); lo += batch {
			if _, err := cube.Ingest(rows[lo:lo+batch], meas[lo:lo+batch]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var snaps [][]byte
	ingesting := true
	for ingesting {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ingesting = false
		default:
		}
		var buf bytes.Buffer
		if err := cube.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}

	for k, snap := range snaps {
		loaded, err := LoadCube(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		grand, err := loaded.Aggregate(nil, nil)
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		if !allowed[grand] {
			t.Fatalf("snapshot %d: grand total %d is not any committed boundary", k, grand)
		}
		// Every view of a Sum cube re-aggregates to the same grand
		// total; a torn save (some views pre-batch, some post-batch)
		// would disagree.
		for _, dims := range loaded.Views() {
			vw, err := loaded.View(dims)
			if err != nil {
				t.Fatalf("snapshot %d view %v: %v", k, dims, err)
			}
			var sum int64
			for i := 0; i < vw.Len(); i++ {
				_, m := vw.Row(i)
				sum += m
			}
			if sum != grand {
				t.Fatalf("snapshot %d: view %v sums to %d, grand total %d — torn save", k, dims, sum, grand)
			}
		}
	}
	// The last snapshot (taken after ingest finished) reloads to the
	// complete stream: identical to a scratch rebuild on all the facts.
	loaded, err := LoadCube(bytes.NewReader(snaps[len(snaps)-1]))
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildFromFacts(t, rows, meas, Options{Processors: 2})
	checkCubesEqual(t, loaded, fresh)
}

// TestLoadV1Snapshot: version-1 snapshots (no hardware, iceberg, or
// version records) still load and serve queries, but reject ingest.
func TestLoadV1Snapshot(t *testing.T) {
	in, oracle := loadRandom(t, 900, 131)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Encode the v1 wire form: the same struct with only v1 fields set.
	sc := savedCube{
		Version:    1,
		Dimensions: cube.in.schema.Dimensions,
		Dicts:      cube.in.dicts,
		Op:         int(cube.op),
		Metrics:    cube.Metrics(),
	}
	for _, v := range cube.views {
		vw, ok := cube.gather(v)
		if !ok {
			t.Fatalf("view %v not materialized", v)
		}
		sv := savedView{View: uint32(v), Order: cube.orders[v]}
		for i := 0; i < vw.rows.Len(); i++ {
			sv.Dims = append(sv.Dims, vw.rows.Row(i)...)
			sv.Meas = append(sv.Meas, vw.rows.Meas(i))
		}
		sc.Views = append(sc.Views, sv)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Aggregate([]string{"month", "channel"}, []uint32{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle([]string{"month", "channel"}, []uint32{2, 1}); got != want {
		t.Fatalf("v1 loaded aggregate %d, oracle %d", got, want)
	}
	if _, err := loaded.Ingest([][]uint32{{0, 0, 0, 0}}, []int64{1}); err == nil {
		t.Fatal("v1-loaded cube accepted an ingest batch")
	}
}

// TestLoadV2SnapshotUnderColumnarCode: a snapshot written with the
// columnar store disabled is the exact v2 row-form wire format; the
// v3-capable loader must still accept it and answer queries
// identically to the live cube.
func TestLoadV2SnapshotUnderColumnarCode(t *testing.T) {
	in, oracle := loadRandom(t, 1000, 59)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := colstore.SetEnabled(false)
	var v2 bytes.Buffer
	err = cube.Save(&v2)
	colstore.SetEnabled(prev)
	if err != nil {
		t.Fatal(err)
	}
	var sc savedCube
	if err := gob.NewDecoder(bytes.NewReader(v2.Bytes())).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	if sc.Version != 2 {
		t.Fatalf("columnar-disabled save wrote version %d, want 2", sc.Version)
	}
	loaded, err := LoadCube(&v2)
	if err != nil {
		t.Fatal(err)
	}
	checkCubesEqual(t, loaded, cube)
	if got := mustAggregate(t, loaded, []string{"store"}, []uint32{3}); got != oracle([]string{"store"}, []uint32{3}) {
		t.Fatalf("v2-loaded aggregate %d, oracle %d", got, oracle([]string{"store"}, []uint32{3}))
	}
}

func mustAggregate(t *testing.T, c *Cube, dims []string, key []uint32) int64 {
	t.Helper()
	got, err := c.Aggregate(dims, key)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSaveLoadColumnarMatchesRowOracle: the same cube saved through
// the v3 columnar path and the v2 row path reloads to byte-identical
// views and answers.
func TestSaveLoadColumnarMatchesRowOracle(t *testing.T) {
	in, oracle := loadRandom(t, 1100, 67)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := cube.Save(&v3); err != nil {
		t.Fatal(err)
	}
	var sc savedCube
	if err := gob.NewDecoder(bytes.NewReader(v3.Bytes())).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	if sc.Version != 3 {
		t.Fatalf("columnar save wrote version %d, want 3", sc.Version)
	}
	prev := colstore.SetEnabled(false)
	var v2 bytes.Buffer
	err = cube.Save(&v2)
	colstore.SetEnabled(prev)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Len() >= v2.Len() {
		t.Fatalf("v3 snapshot (%d bytes) not smaller than v2 (%d bytes)", v3.Len(), v2.Len())
	}
	fromV3, err := LoadCube(&v3)
	if err != nil {
		t.Fatal(err)
	}
	fromV2, err := LoadCube(&v2)
	if err != nil {
		t.Fatal(err)
	}
	checkCubesEqual(t, fromV3, fromV2)
	for _, q := range []struct {
		dims []string
		key  []uint32
	}{{[]string{"month"}, []uint32{4}}, {nil, nil}} {
		a := mustAggregate(t, fromV3, q.dims, q.key)
		if b := mustAggregate(t, fromV2, q.dims, q.key); a != b || a != oracle(q.dims, q.key) {
			t.Fatalf("query %v: v3 %d, v2 %d, oracle %d", q.dims, a, b, oracle(q.dims, q.key))
		}
	}
}

// TestLoadCubeCorruptColumnarBlock: a flipped payload bit and a
// structurally damaged column must both surface as errors wrapping
// colstore.ErrCorrupt — never a panic, never a silently wrong cube.
func TestLoadCubeCorruptColumnarBlock(t *testing.T) {
	in, _ := loadRandom(t, 800, 71)
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, damage func(sc *savedCube) bool) error {
		t.Helper()
		var sc savedCube
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&sc); err != nil {
			t.Fatal(err)
		}
		if !damage(&sc) {
			t.Fatal("no columnar block to damage")
		}
		var bad bytes.Buffer
		if err := gob.NewEncoder(&bad).Encode(sc); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCube(&bad)
		return err
	}

	err = corrupt(t, func(sc *savedCube) bool {
		for i := range sc.Views {
			for _, s := range sc.Views[i].Slices {
				if s.Corrupt(0xdeadbeef) {
					return true
				}
			}
		}
		return false
	})
	if !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want colstore.ErrCorrupt", err)
	}

	err = corrupt(t, func(sc *savedCube) bool {
		for i := range sc.Views {
			for _, s := range sc.Views[i].Slices {
				for j := range s.Cols {
					if len(s.Cols[j].Words) > 0 {
						s.Cols[j].Words = s.Cols[j].Words[:len(s.Cols[j].Words)-1]
						return true
					}
				}
			}
		}
		return false
	})
	if !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("truncated column: err = %v, want colstore.ErrCorrupt", err)
	}
}

// TestLoadCubeTruncatedStream: cutting the v3 gob stream at arbitrary
// points must produce an error, not a panic or a partial cube.
func TestLoadCubeTruncatedStream(t *testing.T) {
	in, _ := loadRandom(t, 800, 73)
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, k := range []int{1, len(b) / 4, len(b) / 2, 3 * len(b) / 4, len(b) - 1} {
		if _, err := LoadCube(bytes.NewReader(b[:k])); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", k, len(b))
		}
	}
}
