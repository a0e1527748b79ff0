package soctap_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	"soctap"
)

// ExampleOptimize shows the basic flow: load a benchmark, co-optimize
// the test architecture with per-core compression, and verify the plan
// by cycle-accurate simulation.
func ExampleOptimize() {
	design := soctap.D695()
	res, err := soctap.Optimize(design, 32, soctap.Options{
		Style: soctap.StyleTDCPerCore,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cores planned:", len(res.Choices))
	fmt.Println("partition width:", res.Partition.TotalWidth())
	fmt.Println("schedule consistent:", res.Schedule.Validate() == nil)
	fmt.Println("bit-exact delivery:", soctap.VerifyPlan(res) == nil)
	// Output:
	// cores planned: 10
	// partition width: 32
	// schedule consistent: true
	// bit-exact delivery: true
}

// ExampleOptimize_styles contrasts the paper's three architecture
// styles on the same SOC: compression dominates direct access on
// sparse industrial cores.
func ExampleOptimize_styles() {
	design, err := soctap.System("System1")
	if err != nil {
		log.Fatal(err)
	}
	var cache soctap.Cache
	run := func(style soctap.Style) *soctap.Result {
		res, err := soctap.Optimize(design, 24, soctap.Options{Style: style, Cache: &cache})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	direct := run(soctap.StyleNoTDC)
	perCore := run(soctap.StyleTDCPerCore)
	fmt.Println("compression at least 3x faster:", direct.TestTime > 3*perCore.TestTime)
	fmt.Println("compression shrinks ATE data:", perCore.Volume < direct.Volume)
	// Output:
	// compression at least 3x faster: true
	// compression shrinks ATE data: true
}

// ExampleSweepTDCContext reproduces the paper's key per-core observation: test
// time is not monotonic in the number of wrapper chains.
func ExampleSweepTDCContext() {
	core, err := soctap.IndustrialCore("ckt-7")
	if err != nil {
		log.Fatal(err)
	}
	cfgs, err := soctap.SweepTDCContext(context.Background(), core, 128, 255, 0) // the w = 10 band
	if err != nil {
		log.Fatal(err)
	}
	increases := 0
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].Time > cfgs[i-1].Time {
			increases++
		}
	}
	fmt.Println("monotonic:", increases == 0)
	// Output:
	// monotonic: false
}

// ExampleParseSOC reads a design from the ITC'02-inspired text format.
func ExampleParseSOC() {
	input := `
SocName demo
Core dsp
  Inputs 10
  Outputs 8
  ScanChains 2 40 40
  Patterns 25
  CareDensity 0.05
EndCore
`
	design, err := soctap.ParseSOC(strings.NewReader(input))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(design.Name, len(design.Cores), design.Cores[0].ScanCells())
	// Output:
	// demo 1 80
}

// ExampleWritePlan exports an optimized plan as JSON for downstream
// tooling.
func ExampleWritePlan() {
	design := soctap.D695()
	res, err := soctap.Optimize(design, 16, soctap.Options{Style: soctap.StyleTDCPerCore})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := soctap.WritePlan(&buf, res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("has design field:", strings.Contains(buf.String(), `"design": "d695"`))
	fmt.Println("has cores:", strings.Contains(buf.String(), `"core": "s38417"`))
	// Output:
	// has design field: true
	// has cores: true
}
