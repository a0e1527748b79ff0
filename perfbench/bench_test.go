package main

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"soctap/internal/core"
	"soctap/internal/soc"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{5, 5, 5, 5, 5}, 0.9, 5}, // all ties
		{[]float64{1, 2, 2, 2, 9}, 0.5, 2}, // ties around the median
		{[]float64{1, 2, 2, 2, 9}, 0.875, 5.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.xs, tc.q, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		q      float64
		ok     bool
		beyond int
	}{
		{1000, 0.99, 0.99, true, 10}, // p99 has exactly ten samples beyond it
		{2000, 0.99, 0.99, true, 20},
		{900, 0.99, 889.0 / 899, true, 10}, // nine beyond p99: fall back to the highest supported
		{140, 0.99, 129.0 / 139, true, 10},
		{21, 0.99, 0.5, true, 10},
		{11, 0.99, 0, false, 0},
		{5, 0.99, 0, false, 0},
	} {
		q, ok := tailQuantile(tc.n, tc.want)
		if ok != tc.ok || math.Abs(q-tc.q) > 1e-12 {
			t.Errorf("tailQuantile(%d, %g) = %g, %v; want %g, %v", tc.n, tc.want, q, ok, tc.q, tc.ok)
		}
		if ok && beyond(tc.n, q) != tc.beyond {
			t.Errorf("n=%d: %d samples beyond p%s, want %d", tc.n, beyond(tc.n, q), pct(q), tc.beyond)
		}
	}
	// Ten samples beyond means exactly: the eleventh-highest sample is
	// the one the percentile interpolates from.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := quantile(xs, 0.99); got < 989 || got >= 990 {
		t.Errorf("p99 of 0..999 = %g, want in [989, 990)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.table", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "core.table", Start: 40, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "cube.gen", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "search.plan", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"bench":  (100 - 50 - 10) / 1e9,
		"core":   (40 - 10 + 20) / 1e9,
		"cube":   10 / 1e9,
		"search": 30 / 1e9,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self time of %s = %g, want %g", k, got[k], v)
		}
	}
}

// A wrong output is counted as a failed operation and marks the run
// incorrect; an operation that errors is failed but not wrong.
func TestWrongOutputCounted(t *testing.T) {
	d := soc.D695()
	res, err := core.Optimize(d, 32, core.Options{Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: tab3TableWidth}})
	if err != nil {
		t.Fatal(err)
	}
	key := tab3Plan{32, core.StyleTDCPerCore}.key(d.Name)

	b := &bench{}
	b.record(checkTab3Plan(key, res))
	if b.attempted.Load() != 1 || b.failed.Load() != 0 {
		t.Fatalf("correct plan: attempted %d failed %d", b.attempted.Load(), b.failed.Load())
	}
	res.TestTime++ // force a wrong output
	b.record(checkTab3Plan(key, res))
	if b.failed.Load() != 1 || b.wrong.Load() != 1 {
		t.Errorf("wrong plan: failed %d wrong %d, want 1 1", b.failed.Load(), b.wrong.Load())
	}

	plan, err := jsonPlan(res.Plan())
	if err != nil {
		t.Fatal(err)
	}
	other := plan
	other.Cores = append([]core.CoreJSON(nil), plan.Cores...)
	other.Cores[0].Start++
	b.record(checkPlan(request{design: d.Name, width: 32}, plan, plan))
	b.record(checkPlan(request{design: d.Name, width: 32}, other, plan))
	b.record(errors.New("status 503"))
	if b.attempted.Load() != 5 || b.failed.Load() != 3 || b.wrong.Load() != 2 {
		t.Errorf("attempted %d failed %d wrong %d, want 5 3 2", b.attempted.Load(), b.failed.Load(), b.wrong.Load())
	}

	if err := checkGiant(1, &core.Result{TestTime: giantGolden[1][0], Volume: giantGolden[1][1] + 1}); !errors.Is(err, errWrong) {
		t.Errorf("giant check of a wrong volume: %v", err)
	}
}

// The same seed gives the same plan order, request sequence and
// designs; another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	if !reflect.DeepEqual(newTab3(7), newTab3(7)) || reflect.DeepEqual(newTab3(7), newTab3(8)) {
		t.Error("tab3 plan order is not a function of the seed")
	}

	w1, w2, w3 := warmSchedule(7, 500, 100), warmSchedule(7, 500, 100), warmSchedule(8, 500, 100)
	if !reflect.DeepEqual(w1, w2) {
		t.Error("warm schedule: same seed, different requests")
	}
	if reflect.DeepEqual(w1, w3) {
		t.Error("warm schedule: seeds 7 and 8 give the same requests")
	}
	for i := 1; i < len(w1); i++ {
		if w1[i].due <= w1[i-1].due {
			t.Fatalf("warm requests not in due order at %d", i)
		}
	}

	g1, err := giantDesign(7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := giantDesign(7)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := giantDesign(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Error("giant design: same seed, different design")
	}
	if g1.TotalScanCells() != g3.TotalScanCells() || g1.Cores[0].Seed == g3.Cores[0].Seed {
		t.Error("giant design: seeds should change the cubes and keep the structure")
	}

	// Every run seed folds onto a cube seed with a recorded plan, and
	// seeds a fold apart give the same design.
	for _, seed := range []int64{-41, -1, 0, 1, 7, 20, 21, 31, 40, 1 << 40} {
		if _, ok := giantGolden[giantCubeSeed(seed)]; !ok {
			t.Errorf("seed %d folds to cube seed %d, which has no recorded plan", seed, giantCubeSeed(seed))
		}
	}
	g27, err := giantDesign(7 + giantCubeSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, g27) {
		t.Errorf("giant design: seeds 7 and %d should fold onto the same design", 7+giantCubeSeeds)
	}

	// At its shape seed the design is exactly what Synthesize makes.
	syn, err := soc.Synthesize(context.Background(), soc.SynthSpec{
		Name: "giant-1", Profile: "giant", Cores: giantCores, Seed: giantShapeSeed, Patterns: giantPatterns, Scale: giantScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, err := giantDesign(giantShapeSeed); err != nil || !reflect.DeepEqual(g, syn) {
		t.Errorf("giantDesign(%d) differs from soc.Synthesize (err %v)", giantShapeSeed, err)
	}
}
