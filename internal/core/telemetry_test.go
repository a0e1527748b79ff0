package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"soctap/internal/sched"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// telemetrize runs Optimize on the SOC with a fresh sink and fresh
// caches and returns the full snapshot.
func telemetrize(t *testing.T, s *soc.SOC, workers int) *telemetry.Snapshot {
	t.Helper()
	sink := telemetry.New()
	_, err := Optimize(s, 16, Options{
		Style:       StyleTDCPerCore,
		Tables:      TableOptions{MaxWidth: 16},
		Cache:       new(Cache),
		Workers:     workers,
		MergeSearch: true,
		Telemetry:   sink.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sink.Snapshot()
}

// TestTelemetryCounterDeterminism: the counter snapshot of a d695 run
// is identical for Workers=1 and Workers=8 — counters count algorithmic
// events, not scheduling accidents. Timings are excluded by
// construction (they live in Snapshot.Timings). Runs under -race in
// the tier-1 gate.
func TestTelemetryCounterDeterminism(t *testing.T) {
	s := soc.D695()
	seq := telemetrize(t, s, 1).Counters
	par := telemetrize(t, soc.D695(), 8).Counters
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("counters differ across worker counts:\nworkers=1: %v\nworkers=8: %v", seq, par)
	}
	for _, name := range []string{
		"cache.mem_misses", "tables.built",
		"eval.tdc_evals", "eval.notdc_evals",
		"sched.placements",
	} {
		if seq[name] == 0 {
			t.Errorf("counter %s is zero; instrumentation not reaching that subsystem (have %v)", name, seq)
		}
	}
	if seq["tables.built"] != int64(len(s.Cores)) {
		t.Errorf("tables.built = %d, want %d (one build per core on a cold cache)",
			seq["tables.built"], len(s.Cores))
	}
}

// TestHistogramCountInvariance: a histogram's observation *count* is as
// deterministic as the counters — one observation per algorithmic event
// (a table build, a schedule evaluation) — so Workers=1 and Workers=8
// runs on d695 record identical counts in every histogram. The observed
// values are wall clock; only counts are compared. Runs under -race in
// the obs gate.
func TestHistogramCountInvariance(t *testing.T) {
	counts := func(sn *telemetry.Snapshot) map[string]int64 {
		m := make(map[string]int64, len(sn.Histograms))
		for name, h := range sn.Histograms {
			m[name] = h.Count
		}
		return m
	}
	seq := telemetrize(t, soc.D695(), 1)
	par := telemetrize(t, soc.D695(), 8)
	if sc, pc := counts(seq), counts(par); !reflect.DeepEqual(sc, pc) {
		t.Fatalf("histogram counts differ across worker counts:\nworkers=1: %v\nworkers=8: %v", sc, pc)
	}
	for _, name := range []string{"tables.build_seconds", "sched.schedule_seconds"} {
		if seq.Histograms[name].Count == 0 {
			t.Errorf("histogram %s has no observations; instrumentation not reaching that subsystem (have %v)",
				name, counts(seq))
		}
	}
	if got, want := seq.Histograms["tables.build_seconds"].Count, seq.Counters["tables.built"]; got != want {
		t.Errorf("tables.build_seconds count = %d, want %d (one observation per completed build)", got, want)
	}
}

// TestOptimizeTelemetrySpans: the phase-span tree has the documented
// shape — tables (one child per core) and search (k-sweep, refine,
// merge) and schedule — with nonzero counts.
func TestOptimizeTelemetrySpans(t *testing.T) {
	s := testSOC()
	sink := telemetry.New()
	if _, err := Optimize(s, 12, Options{
		Style:       StyleTDCPerCore,
		Tables:      TableOptions{MaxWidth: 12},
		MergeSearch: true,
		Telemetry:   sink.Root(),
	}); err != nil {
		t.Fatal(err)
	}
	sn := sink.Snapshot()
	byName := map[string]telemetry.SpanSnap{}
	for _, sp := range sn.Spans {
		byName[sp.Name] = sp
	}
	tables, ok := byName["tables"]
	if !ok || tables.Count != 1 {
		t.Fatalf("missing tables span: %+v", sn.Spans)
	}
	if len(tables.Children) != len(s.Cores) {
		t.Fatalf("tables span has %d children, want one per core (%d)", len(tables.Children), len(s.Cores))
	}
	for i, c := range s.Cores {
		if want := "core:" + c.Name; tables.Children[i].Name != want {
			t.Fatalf("tables child %d is %q, want %q (core order must be preserved)",
				i, tables.Children[i].Name, want)
		}
	}
	search, ok := byName["search"]
	if !ok {
		t.Fatalf("missing search span: %+v", sn.Spans)
	}
	kids := map[string]bool{}
	for _, c := range search.Children {
		kids[c.Name] = true
	}
	for _, want := range []string{"k-sweep", "refine", "merge"} {
		if !kids[want] {
			t.Fatalf("search span missing child %q: %+v", want, search.Children)
		}
	}
	if _, ok := byName["schedule"]; !ok {
		t.Fatalf("missing schedule span: %+v", sn.Spans)
	}
}

// TestTelemetryDisabledResultUnchanged: instrumentation must not change
// the optimization result.
func TestTelemetryDisabledResultUnchanged(t *testing.T) {
	s := testSOC()
	plain, err := Optimize(s, 12, Options{Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 12}})
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.New()
	instr, err := Optimize(testSOC(), 12, Options{
		Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 12}, Telemetry: sink.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TestTime != instr.TestTime || plain.Volume != instr.Volume ||
		!reflect.DeepEqual(plain.Partition, instr.Partition) {
		t.Fatalf("telemetry changed the result: %v/%d vs %v/%d",
			plain.Partition, plain.TestTime, instr.Partition, instr.TestTime)
	}
}

// TestKernelDisabledTelemetryZeroAlloc guards the nil-sink fast path of
// the instrumented evaluator kernel: with no sink attached, a TDC
// evaluation on a warm design must not allocate. This is the
// telemetry-overhead gate run by `make check`.
func TestKernelDisabledTelemetryZeroAlloc(t *testing.T) {
	c := compressibleCore(7)
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ev.Design(12)
	if err != nil {
		t.Fatal(err)
	}
	d.StimulusMap() // warm the memoized map
	if _, err := ev.TDC(12, true); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ev.TDC(12, true); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("instrumented-but-disabled kernel allocates %v/op, want 0", n)
	}
}

// TestMakespanDisabledTelemetryZeroAlloc guards the scheduler side: the
// warm makespan path with a nil Placements counter stays allocation
// free.
func TestMakespanDisabledTelemetryZeroAlloc(t *testing.T) {
	dur := func(core, width int) int64 { return int64(1000/(width+1) + core) }
	widths := []int{5, 4, 3}
	var pl sched.Planner
	if _, err := pl.GreedyMakespan(8, widths, dur); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := pl.GreedyMakespan(8, widths, dur); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("disabled-telemetry makespan path allocates %v/op, want 0", n)
	}
}

// TestCacheWarnOnWriteError: an unwritable cache directory surfaces
// through the warning callback and the write-error counter instead of
// failing the run.
func TestCacheWarnOnWriteError(t *testing.T) {
	c := compressibleCore(13)
	sink := telemetry.New()
	var warnings []string
	var cache Cache
	cache.SetDir("/dev/null/not-a-directory") // MkdirAll must fail
	cache.SetWarn(func(msg string) { warnings = append(warnings, msg) })
	if _, err := cache.get(context.Background(), c, TableOptions{MaxWidth: 8}, sink); err != nil {
		t.Fatal(err)
	}
	if got := sink.Snapshot().Counters["diskcache.write_errors"]; got != 1 {
		t.Fatalf("diskcache.write_errors = %d, want 1", got)
	}
	var wroteWarn bool
	for _, w := range warnings {
		if strings.Contains(w, "writing") {
			wroteWarn = true
		}
	}
	if !wroteWarn {
		t.Fatalf("no write-error warning fired, got %v", warnings)
	}
}

// ExampleOptimize-style check that the snapshot JSON is diffable: two
// cold runs of the same workload produce byte-identical counter maps.
func TestTelemetrySnapshotDiffable(t *testing.T) {
	dump := func() string {
		sink := telemetry.New()
		if _, err := Optimize(testSOC(), 12, Options{
			Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 12},
			Cache: new(Cache), Telemetry: sink.Root(),
		}); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(sink.Snapshot().Counters)
	}
	if a, b := dump(), dump(); a != b {
		t.Fatalf("counter snapshots differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}
