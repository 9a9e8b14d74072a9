package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
)

// smallCube builds a cube of n paper facts for seed.
func smallCube(t *testing.T, seed int64, n int) (*facts, *rolap.Cube) {
	t.Helper()
	f := paperFacts(seed, n)
	in, err := f.input()
	if err != nil {
		t.Fatal(err)
	}
	cube, err := rolap.Build(in, rolap.Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f, cube
}

// served answers every catalogue query through a server.
func servedAnswers(t *testing.T, f *facts, cube *rolap.Cube, cat []query) []answer {
	t.Helper()
	srv, err := cube.NewServer(rolap.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]answer, len(cat))
	for i, q := range cat {
		s, _, err := serve(context.Background(), srv, f, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = s.answer()
	}
	return out
}

func TestAnswersMatchOracle(t *testing.T) {
	f, cube := smallCube(t, 3, 3000)
	cat := catalogue(f.cards, 60, paperMix)
	got := servedAnswers(t, f, cube, cat)
	for i, q := range cat {
		if want := f.oracle(q); got[i] != want {
			t.Errorf("query %d (%c %v): served %v, oracle %v", i, q.kind, q.dims, got[i], want)
		}
		a, err := ask(cube, f, q)
		if err != nil {
			t.Fatal(err)
		}
		if a != got[i] {
			t.Errorf("query %d: cube methods %v, server %v", i, a, got[i])
		}
	}
}

// A corrupted expected answer must be caught, counted as a failure,
// and turn the summary line's verdict to incorrect.
func TestCorruptExpectedAnswerIsCaught(t *testing.T) {
	f, cube := smallCube(t, 5, 2000)
	cat := catalogue(f.cards, 16, paperMix)
	got := servedAnswers(t, f, cube, cat)

	chk := newChecker()
	for i, a := range got {
		chk.observe(i, a)
	}
	chk.verify(func(i int) answer { return f.oracle(cat[i]) })
	var res result
	chk.tally(&res)
	if res.failed != 0 {
		t.Fatalf("clean run: %d failures: %v", res.failed, res.notes)
	}

	chk = newChecker()
	for i, a := range got {
		chk.observe(i, a)
	}
	const bad = 7
	chk.verify(func(i int) answer {
		want := f.oracle(cat[i])
		if i == bad {
			want.sum ^= 1
		}
		return want
	})
	res = result{}
	chk.tally(&res)
	if res.failed != 1 || !strings.Contains(res.notes[0], "query 7") {
		t.Fatalf("corrupted oracle: failed %d, notes %v", res.failed, res.notes)
	}

	var out bytes.Buffer
	if err := writeReport(&out, detail{Attempted: res.attempted, Failed: res.failed}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Correct || s.Failed != 1 {
		t.Fatalf("summary %+v, want incorrect with 1 failure", s)
	}
}

// A changed answer to a repeated query is caught too.
func TestRepeatedQueryMustRepeatAnswer(t *testing.T) {
	chk := newChecker()
	chk.observe(1, answer{groups: 2, sum: 9})
	chk.observe(1, answer{groups: 2, sum: 9})
	chk.observe(1, answer{groups: 2, sum: 8})
	var res result
	chk.tally(&res)
	if res.attempted != 3 || res.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", res.attempted, res.failed)
	}
}

// Inputs are a pure function of the seed: the same seed gives
// identical facts, batches and answers; another seed gives other facts
// and batches. The query catalogue and stream are the same for every
// seed.
func TestSeedDeterminesInputs(t *testing.T) {
	if a, b := paperFacts(11, 500), paperFacts(11, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("paper facts differ for one seed")
	}
	if a, b := paperFacts(11, 500), paperFacts(12, 500); reflect.DeepEqual(a.dims, b.dims) || reflect.DeepEqual(a.meas, b.meas) {
		t.Fatal("paper facts equal for two seeds")
	}
	hot := func(seed int64) *facts {
		return makeFacts(hotRetail(seed), seed, retailNames, retailCards, 0, 900)
	}
	if !reflect.DeepEqual(hot(4), hot(4)) {
		t.Fatal("hot facts differ for one seed")
	}
	if reflect.DeepEqual(hot(4).dims, hot(5).dims) {
		t.Fatal("hot facts equal for two seeds")
	}
	r1, m1 := batch(hotRetail(4), 4, 6, 500, 900)
	r2, m2 := batch(hotRetail(4), 4, 6, 500, 900)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("ingest batches differ for one seed")
	}
	if r3, _ := batch(hotRetail(5), 5, 6, 500, 900); reflect.DeepEqual(r1, r3) {
		t.Fatal("ingest batches equal for two seeds")
	}

	fa, ca := smallCube(t, 21, 1500)
	fb, cb := smallCube(t, 21, 1500)
	cat := catalogue(fa.cards, 30, paperMix)
	if !reflect.DeepEqual(servedAnswers(t, fa, ca, cat), servedAnswers(t, fb, cb, cat)) {
		t.Fatal("answers differ for one seed")
	}
	if ca.Metrics().SimSeconds != cb.Metrics().SimSeconds {
		t.Fatal("simulated build time differs for one seed")
	}
}

func TestCatalogueMix(t *testing.T) {
	counts := map[byte]int{}
	for _, q := range catalogue(gen.PaperCards(), 2000, paperMix) {
		counts[q.kind]++
	}
	for kind, lo := range map[byte]int{kindGroupBy: 700, kindPoint: 500, kindRange: 500} {
		if counts[kind] < lo {
			t.Errorf("kind %c: %d of 2000", kind, counts[kind])
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		f    frame
		want string
	}{
		{frame{"repro/internal/record.(*Table).Sort", "/src/internal/record/record.go"}, "record"},
		{frame{"repro/internal/colstore.Encode", "colstore.go"}, "colstore"},
		{frame{"repro.(*Cube).Save", "/src/persist.go"}, "persist"},
		{frame{"repro.(*Server).serve.func1", "/src/server.go"}, "server"},
		{frame{"repro.Build", "/src/rolap.go"}, "rolap"},
		{frame{"main.runBuild", "build.go"}, modBench},
		{frame{"runtime.mallocgc", "malloc.go"}, ""},
		{frame{"sort.Sort", "sort.go"}, ""},
		{frame{"encoding/gob.(*Encoder).Encode", "encoder.go"}, ""},
	}
	for _, c := range cases {
		if got := moduleOf(c.f); got != c.want {
			t.Errorf("moduleOf(%s) = %q, want %q", c.f.fn, got, c.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	samples := []cpuSample{
		// Standard-library frames count toward the nearest library caller.
		{stack: []frame{{"runtime.memmove", ""}, {"sort.Sort", ""}, {"repro/internal/record.(*Table).Sort", ""}, {"repro/internal/pipesort.Run", ""}}, nanos: 3e7},
		// GC workers are runtime.
		{stack: []frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}, nanos: 1e7},
		// A stack with no library frame and some non-runtime code is other.
		{stack: []frame{{"syscall.Syscall", ""}, {"os.(*File).Read", ""}}, nanos: 2e7},
	}
	a := attribute(samples)
	if a.self["record"] != 0.03 || a.incl["pipesort"] != 0.03 || a.self["pipesort"] != 0 {
		t.Errorf("record self %v, pipesort incl %v self %v", a.self["record"], a.incl["pipesort"], a.self["pipesort"])
	}
	if a.self[modRuntime] != 0.01 || a.gc != 0.01 {
		t.Errorf("runtime self %v, gc %v", a.self[modRuntime], a.gc)
	}
	if a.self[modOther] != 0.02 || a.total != 0.06 {
		t.Errorf("other %v, total %v", a.self[modOther], a.total)
	}
	var other float64
	for _, m := range profileMetrics(a, 0, 1) {
		if m.Name == "other.self_cpu_s" {
			other = m.Value
		}
	}
	if other < 0.0199 || other > 0.0201 {
		t.Errorf("other.self_cpu_s = %v, want 0.02", other)
	}
}

// The decoder reads a real runtime/pprof CPU profile.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = mix64(x)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatalf("no samples (x=%d)", x)
	}
	found := false
	for _, s := range samples {
		if s.nanos <= 0 {
			t.Fatalf("sample with %d ns", s.nanos)
		}
		for _, f := range s.stack {
			found = found || strings.HasSuffix(f.fn, ".mix64") || strings.HasSuffix(f.fn, ".TestDecodeProfile")
		}
	}
	if !found {
		t.Fatal("no sample names the busy loop")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max %v", q)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Fatal("quantile reordered its input")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "build", "--seconds", "0"},
		{"--workload", "build", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	p := tr.reserve()
	// Two overlapping children cover [10, 40) and one more [50, 60).
	tr.record(p, "child", "", at(10), at(30))
	tr.record(p, "child", "", at(20), at(40))
	tr.record(p, "child", "", at(50), at(60))
	tr.finish(p, 0, "parent", at(0), at(100))
	for _, s := range tr.summary() {
		if s.Name == "parent" && (s.SelfS < 0.0599 || s.SelfS > 0.0601) {
			t.Fatalf("parent self %v s, want 0.06", s.SelfS)
		}
	}
}

// manifestMetrics reads the metric names and units BENCHMARK.json
// declares under key.
func manifestMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(m[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, x := range ms {
		out[x.Name] = x.Unit
	}
	return out
}

func units(ms []metric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// Every workload's end-to-end run reports setup_s and opStats, and
// nothing else; its traced run reports layerMetrics. Both must be
// exactly the metrics the manifest declares, in its units.
func TestMetricsMatchManifest(t *testing.T) {
	res := &result{}
	res.setup(config{}, 1)
	var ops opStats
	ops.window([]time.Duration{time.Millisecond, 2 * time.Millisecond}, time.Second, 1e6, 0.5)
	ops.endToEnd(res)
	if got, want := units(res.metrics), manifestMetrics(t, "end_to_end"); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, manifest %v", got, want)
	}
	for _, m := range res.metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", m.Name, m.Value)
		}
	}

	res = &result{}
	layerMetrics(res, traceRun{tr: newTracer()}, layerProbe{}, &buildStats{}, &queryStats{}, &ingestStats{}, &advisorStats{}, 0)
	if got, want := units(res.metrics), manifestMetrics(t, "per_layer"); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, manifest %v", got, want)
	}
}
