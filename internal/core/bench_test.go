package core

import (
	"context"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// benchCore is a mid-size synthetic core with ~320 care bits per cube,
// an industrial-class care density.
func benchCore() *soc.Core {
	chains := make([]int, 64)
	for i := range chains {
		chains[i] = 100
	}
	return &soc.Core{
		Name: "bench", Inputs: 32, Outputs: 32,
		ScanChains: chains, // 6400 cells
		Patterns:   50, CareDensity: 0.05, Clustering: 0.7, DensityDecay: 0.3,
		Seed: 42,
	}
}

// BenchmarkTDCCostKernel measures the hot cost kernel alone — per cube,
// the stimulus-map walk into packed keys and row counts, the target
// count per (row, group) cell, and the counter clear — on a warm
// evaluator at m = 48 (one-word slice rows). Allocations per op should
// be zero: all buffers are reused.
func BenchmarkTDCCostKernel(b *testing.B) {
	benchmarkTDCCost(b, benchCore(), 48)
}

// BenchmarkTDCCostKernelWide is the same kernel on an industrial core at
// m = 1024, where a slice row spans 16 words but holds only a handful of
// a cube's care bits: the regime where pricing per word, rather than per
// care bit, cost the most.
func BenchmarkTDCCostKernelWide(b *testing.B) {
	benchmarkTDCCost(b, soc.MustIndustrialCore("ckt-8"), 1024)
}

// BenchmarkTDCCostKernelDense is the same kernel on the d695 core
// s38584 at m = 32: dense cubes (care density 0.32, decaying over the
// set), the d695 regime, where most slice rows hold several care bits.
func BenchmarkTDCCostKernelDense(b *testing.B) {
	benchmarkTDCCost(b, soc.D695().CoreByName("s38584"), 32)
}

func benchmarkTDCCost(b *testing.B, c *soc.Core, m int) {
	ev, err := NewEvaluator(c)
	if err != nil {
		b.Fatal(err)
	}
	d, err := ev.Design(m)
	if err != nil {
		b.Fatal(err)
	}
	ev.tdcCost(d, true) // load the window and warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.tdcCost(d, true)
	}
}

// BenchmarkTDCCostKernelDisabled measures the instrumented TDC path —
// counter Inc included — with no sink attached. Comparing it against
// BenchmarkTDCCostKernel bounds the disabled-telemetry overhead
// (nil-check only; 0 allocs/op is asserted by the telemetry-overhead
// gate in `make check`).
func BenchmarkTDCCostKernelDisabled(b *testing.B) {
	benchmarkTDCTelemetry(b, nil)
}

// BenchmarkTDCCostKernelTelemetry is the same path with a live sink, so
// the cost of an enabled counter (one atomic add per eval) is visible.
func BenchmarkTDCCostKernelTelemetry(b *testing.B) {
	benchmarkTDCTelemetry(b, telemetry.New())
}

func benchmarkTDCTelemetry(b *testing.B, sink *telemetry.Sink) {
	c := benchCore()
	ev, err := NewEvaluator(c)
	if err != nil {
		b.Fatal(err)
	}
	ev.attachTelemetry(sink)
	d, err := ev.Design(48)
	if err != nil {
		b.Fatal(err)
	}
	d.StimulusMap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.TDC(48, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTableSerial measures one core's full lookup-table build
// with the engine forced sequential.
func BenchmarkBuildTableSerial(b *testing.B) {
	benchmarkBuildTable(b, 1)
}

// BenchmarkBuildTableParallel is the same build with one worker per
// CPU; on a multi-core machine the ratio to the serial benchmark is the
// table-build speedup.
func BenchmarkBuildTableParallel(b *testing.B) {
	benchmarkBuildTable(b, 0)
}

func benchmarkBuildTable(b *testing.B, workers int) {
	c := benchCore()
	if _, err := c.TestSet(); err != nil {
		b.Fatal(err)
	}
	opts := TableOptions{MaxWidth: 32, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTableContext(context.Background(), c, opts); err != nil {
			b.Fatal(err)
		}
	}
}
