// Custom SOC: build a design programmatically, persist it in the
// ITC'02-inspired text format, and plan its test — including the
// power-constrained scheduling extension, where a thermal budget forces
// the scheduler to serialize hot cores even when TAM wires are free.
//
// Run with: go run ./examples/custom_soc
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"soctap"
	"soctap/internal/core"
	"soctap/internal/sched"
)

func main() {
	// Describe an SOC: two big compression-friendly cores, one dense
	// legacy core, one combinational block.
	design := &soctap.SOC{
		Name: "camera-soc",
		Cores: []*soctap.Core{
			{
				Name: "isp", Inputs: 220, Outputs: 180, Bidirs: 16,
				ScanChains: chains(300, 50), Patterns: 180,
				Gates: 240000, CareDensity: 0.02, Clustering: 0.75, DensityDecay: 0.7, Seed: 1001,
			},
			{
				Name: "dsp", Inputs: 150, Outputs: 140,
				ScanChains: chains(200, 45), Patterns: 140,
				Gates: 150000, CareDensity: 0.03, Clustering: 0.7, DensityDecay: 0.6, Seed: 1002,
			},
			{
				Name: "uart", Inputs: 40, Outputs: 36,
				ScanChains: chains(4, 60), Patterns: 90,
				Gates: 6000, CareDensity: 0.45, Clustering: 0.3, Seed: 1003,
			},
			{
				Name: "crc", Inputs: 64, Outputs: 32, Patterns: 24,
				Gates: 1800, CareDensity: 0.6, Clustering: 0.2, Seed: 1004,
			},
		},
	}

	// Round-trip through the on-disk format (what socgen/socopt use).
	var buf bytes.Buffer
	if err := soctap.WriteSOC(&buf, design); err != nil {
		log.Fatal(err)
	}
	reloaded, err := soctap.ParseSOC(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round-tripped %s through the .soc format: %d cores\n\n",
		reloaded.Name, len(reloaded.Cores))

	// Plan the test with the proposed per-core compression scheme.
	res, err := soctap.Optimize(reloaded, 20, soctap.Options{Style: soctap.StyleTDCPerCore})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("W_TAM = 20 -> partition %v, %d cycles, %d ATE bits\n",
		res.Partition, res.TestTime, res.Volume)
	for _, ch := range res.Choices {
		fmt.Printf("  %-5s bus %d: %6d cycles (tdc=%v, m=%d)\n",
			ch.Core, ch.Bus, ch.Config.Time, ch.Config.UseTDC, ch.Config.M)
	}
	if err := soctap.VerifyPlan(res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan verified in simulation")

	// Extension: power-constrained scheduling. Reuse the optimizer's
	// per-core lookup tables as durations and impose a power ceiling
	// that forbids testing both big cores concurrently.
	tables := make([]*soctap.Table, len(reloaded.Cores))
	for i, c := range reloaded.Cores {
		t, err := soctap.BuildTableContext(context.Background(), c, soctap.TableOptions{MaxWidth: 20})
		if err != nil {
			log.Fatal(err)
		}
		tables[i] = t
	}
	dur := func(c, width int) int64 {
		if width > 20 {
			width = 20
		}
		if width < 1 {
			return 0
		}
		return tables[c].Best[width].Time
	}
	// Derive per-core power from the delivered stimuli themselves:
	// weighted transition counts under the fill each core's codec
	// implies (scaled to small integer units).
	powerUnits := make([]int, len(reloaded.Cores))
	for i, c := range reloaded.Cores {
		m := 8
		if m > c.MaxWrapperChains() {
			m = c.MaxWrapperChains()
		}
		est, err := soctap.ScanInPower(c, m, soctap.FillSlice)
		if err != nil {
			log.Fatal(err)
		}
		powerUnits[i] = int(est.PeakWTC/1000) + 1
		fmt.Printf("  %-5s peak scan WTC %d -> %d power units\n", c.Name, est.PeakWTC, powerUnits[i])
	}
	total := 0
	for _, p := range powerUnits {
		total += p
	}
	for _, cap := range []int{total, (powerUnits[0] + powerUnits[1]) * 9 / 10} {
		s, err := sched.GreedyPower(len(reloaded.Cores), res.Partition, dur, powerUnits, cap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("power cap %4d: makespan %d cycles\n", cap, s.Makespan)
	}
	fmt.Println("=> the tight cap forbids testing both big cores concurrently, trading time for power safety")

	// For reference, the unconstrained makespan equals the optimizer's.
	unconstrained, err := sched.Greedy(len(reloaded.Cores), res.Partition,
		func(c, w int) int64 { return dur(c, w) })
	if err != nil {
		log.Fatal(err)
	}
	_ = core.StyleTDCPerCore // (core package exported for advanced use)
	fmt.Printf("unconstrained greedy for comparison: %d cycles\n", unconstrained.Makespan)
}

func chains(n, length int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = length
	}
	return out
}
