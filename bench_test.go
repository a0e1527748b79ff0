// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the artifact end-to-end), plus ablation benchmarks for
// the design choices called out in DESIGN.md §5.
//
// Run with: go test -bench=. -benchmem
//
// Reproduction metrics are attached to the benchmark output via
// ReportMetric (e.g. the Table 3 time-reduction factor), so a benchmark
// run doubles as a shape check against the paper's numbers.
package soctap_test

import (
	"testing"

	"soctap"
	"soctap/internal/core"
	"soctap/internal/experiments"
	"soctap/internal/sched"
	"soctap/internal/soc"
)

// benchEnv is shared by every benchmark, so consecutive benchmarks
// reuse each other's lookup tables as the experiments of one repro run
// do.
var benchEnv = &experiments.Env{Cache: new(soctap.Cache)}

// BenchmarkFig2CktSweep regenerates Figure 2: the exhaustive m sweep of
// the w=10 band on ckt-7, whose non-monotonic test time motivates the
// paper.
func BenchmarkFig2CktSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpreadPct, "spread-%")
	}
}

// BenchmarkFig3WidthSweep regenerates Figure 3: best configuration per
// TAM width for ckt-7.
func BenchmarkFig3WidthSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Times[0])/float64(r.Times[len(r.Times)-1]), "narrow/wide-x")
	}
}

// BenchmarkFig4Styles regenerates Figure 4: the three architecture
// styles on the three-core industrial SOC at W_TAM = 31.
func BenchmarkFig4Styles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Results[0].TestTime)/float64(r.Results[2].TestTime), "tdc-speedup-x")
	}
}

// BenchmarkTab1ATEConstraint regenerates Table 1: d695/d2758 under ATE
// channel constraints against the [18] and [11] proxies.
func BenchmarkTab1ATEConstraint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Tab1()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range r.Rows {
			sum += row.Ratio18
		}
		b.ReportMetric(sum/float64(len(r.Rows)), "avg-ours/[18]")
	}
}

// BenchmarkTab2TAMConstraint regenerates Table 2: d695 under TAM width
// constraints against the [18] and [13] proxies.
func BenchmarkTab2TAMConstraint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Tab2()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range r.Rows {
			sum += row.Ratio18
		}
		b.ReportMetric(sum/float64(len(r.Rows)), "avg-ours/[18]")
	}
}

// BenchmarkTab3WithWithoutTDC regenerates Table 3, the paper's headline
// experiment: test time and data volume with and without compression on
// d695 and System1..System4. The reported metrics correspond to the
// paper's 15.39x (time) and 15.80x (volume) industrial averages.
func BenchmarkTab3WithWithoutTDC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Tab3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgTimeRatioInd, "time-reduction-x")
		b.ReportMetric(r.AvgVolRatioInd, "volume-reduction-x")
	}
}

// BenchmarkAblationGroupCopy quantifies the codec's group-copy mode:
// the same core and m evaluated with the two-mode codec versus
// single-bit-only encoding.
func BenchmarkAblationGroupCopy(b *testing.B) {
	c := soc.MustIndustrialCore("ckt-9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		with, err := soctap.EvalTDC(c, 255)
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.EvalTDCNoGroupCopy(c, 255)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(without.Volume)/float64(with.Volume), "volume-saving-x")
	}
}

// BenchmarkAblationBestM compares the paper's full within-band m
// exploration against simply taking the band maximum (BandSamples=1),
// quantifying the payoff of the non-monotonicity analysis.
func BenchmarkAblationBestM(b *testing.B) {
	s := soc.MustSystem("System1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		full, err := soctap.Optimize(s, 32, soctap.Options{
			Style:  soctap.StyleTDCPerCore,
			Tables: soctap.TableOptions{MaxWidth: 32, BandSamples: 48},
			Cache:  benchEnv.Cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		bandMax, err := soctap.Optimize(s, 32, soctap.Options{
			Style:  soctap.StyleTDCPerCore,
			Tables: soctap.TableOptions{MaxWidth: 32, BandSamples: 1},
			Cache:  benchEnv.Cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(bandMax.TestTime)/float64(full.TestTime), "bandmax/full-x")
	}
}

// BenchmarkAblationTAMRefine compares even TAM partitions against the
// wire-moving local search.
func BenchmarkAblationTAMRefine(b *testing.B) {
	s := soc.MustSystem("System1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refined, err := soctap.Optimize(s, 37, soctap.Options{
			Style:  soctap.StyleTDCPerCore,
			Tables: soctap.TableOptions{MaxWidth: 37},
			Cache:  benchEnv.Cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		even, err := soctap.Optimize(s, 37, soctap.Options{
			Style:             soctap.StyleTDCPerCore,
			Tables:            soctap.TableOptions{MaxWidth: 37},
			Cache:             benchEnv.Cache,
			DisableRefinement: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(even.TestTime)/float64(refined.TestTime), "even/refined-x")
	}
}

// BenchmarkAblationSchedule compares longest-first greedy scheduling
// against naive declaration-order placement.
func BenchmarkAblationSchedule(b *testing.B) {
	s := soc.MustSystem("System2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lpt, err := soctap.Optimize(s, 32, soctap.Options{
			Style:  soctap.StyleTDCPerCore,
			Tables: soctap.TableOptions{MaxWidth: 64},
			Cache:  benchEnv.Cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		naive, err := soctap.Optimize(s, 32, soctap.Options{
			Style:      soctap.StyleTDCPerCore,
			Tables:     soctap.TableOptions{MaxWidth: 64},
			Cache:      benchEnv.Cache,
			NaiveOrder: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(naive.TestTime)/float64(lpt.TestTime), "naive/lpt-x")
	}
}

// BenchmarkOptimizeD695 measures the architecture search itself on warm
// lookup tables — the CPU-time column of Table 3.
func BenchmarkOptimizeD695(b *testing.B) {
	s := soctap.D695()
	cache := benchEnv.Cache
	// Warm the tables outside the timed region.
	if _, err := soctap.Optimize(s, 32, soctap.Options{
		Style: soctap.StyleTDCPerCore, Tables: soctap.TableOptions{MaxWidth: 64}, Cache: cache,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soctap.Optimize(s, 32, soctap.Options{
			Style: soctap.StyleTDCPerCore, Tables: soctap.TableOptions{MaxWidth: 64}, Cache: cache,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeSearch isolates the Section 3 architecture search —
// the paper's CPU column — from table building: tables are prebuilt
// into the shared cache outside the timed region, the engine is forced
// sequential (so the duration matrix and the schedule evaluations are
// measured on their own, not parallelism), and MergeSearch
// exercises every search phase. The makespan metric pins the result:
// search speedups must not move it.
func BenchmarkOptimizeSearch(b *testing.B) {
	s := soctap.D695()
	opts := soctap.Options{
		Style:       soctap.StyleTDCPerCore,
		Tables:      soctap.TableOptions{MaxWidth: 64},
		Cache:       benchEnv.Cache,
		Workers:     1,
		MergeSearch: true,
	}
	// Warm the tables outside the timed region.
	if _, err := soctap.Optimize(s, 64, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := soctap.Optimize(s, 64, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TestTime), "makespan-cycles")
	}
}

// BenchmarkVerifyPlan measures the cycle-accurate verification of a
// complete d695 plan.
func BenchmarkVerifyPlan(b *testing.B) {
	s := soctap.D695()
	res, err := soctap.Optimize(s, 32, soctap.Options{
		Style: soctap.StyleTDCPerCore, Tables: soctap.TableOptions{MaxWidth: 64},
		Cache: benchEnv.Cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := soctap.VerifyPlan(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTechniqueSelection measures the per-core technique-selection
// extension (direct vs selective encoding vs dictionary) on an
// industrial core, reporting how often the dictionary wins the width
// sweep.
func BenchmarkTechniqueSelection(b *testing.B) {
	c := soc.MustIndustrialCore("ckt-6")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel, err := soctap.SelectTechniques(c, soctap.TableOptions{MaxWidth: 16}, nil)
		if err != nil {
			b.Fatal(err)
		}
		dictWins := 0
		for u := 3; u <= 16; u++ {
			if sel.PerWidth[u].Codec == soctap.CodecDict {
				dictWins++
			}
		}
		b.ReportMetric(float64(dictWins), "dict-wins")
	}
}

// BenchmarkAblationOptimalSchedule certifies the greedy scheduler
// against the branch-and-bound oracle on a small SOC, reporting the
// optimality gap.
func BenchmarkAblationOptimalSchedule(b *testing.B) {
	s := &soc.SOC{Name: "gapcheck", Cores: soc.D695().Cores[2:8]}
	tables := make([]*soctap.Table, len(s.Cores))
	for i, c := range s.Cores {
		t, err := soctap.BuildTable(c, soctap.TableOptions{MaxWidth: 16})
		if err != nil {
			b.Fatal(err)
		}
		tables[i] = t
	}
	dur := func(c, width int) int64 {
		if width < 1 {
			return 0
		}
		if width > 16 {
			width = 16
		}
		cfg := tables[c].Best[width]
		if !cfg.Feasible {
			return 0
		}
		return cfg.Time
	}
	widths := []int{6, 5, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := sched.Greedy(len(s.Cores), widths, dur)
		if err != nil {
			b.Fatal(err)
		}
		o, err := sched.Optimal(len(s.Cores), widths, dur, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.Makespan)/float64(o.Makespan), "greedy/optimal-x")
	}
}

// BenchmarkScalability24Cores stresses the architecture search on a
// 24-core SOC (twice the paper's largest system) with warm lookup
// tables, checking the paper's "CPU time under a minute" claim scales.
func BenchmarkScalability24Cores(b *testing.B) {
	s, err := soc.StressSystem(24, 3)
	if err != nil {
		b.Fatal(err)
	}
	cache := benchEnv.Cache
	// Warm tables outside the timed region.
	if _, err := soctap.Optimize(s, 64, soctap.Options{
		Style: soctap.StyleTDCPerCore, Tables: soctap.TableOptions{MaxWidth: 64}, Cache: cache,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := soctap.Optimize(s, 64, soctap.Options{
			Style: soctap.StyleTDCPerCore, Tables: soctap.TableOptions{MaxWidth: 64}, Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CPUSeconds, "search-seconds")
	}
}
