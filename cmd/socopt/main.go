// Command socopt optimizes the test architecture and schedule of a
// core-based SOC under a TAM-width budget, using co-optimized core-level
// test data compression (the DATE'08 method this library reproduces).
//
// Usage:
//
//	socopt -design d695 -width 32                         # built-in benchmark
//	socopt -design my.soc -width 24 -style tdc-per-core   # design file
//	socopt -design System2 -width 48 -verify              # plus bit-level simulation
//
// Styles: no-tdc (direct access), tdc-per-tam (decompressor per TAM),
// tdc-per-core (the proposed scheme; default).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"soctap/internal/ate"
	"soctap/internal/cli"
	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/sim"
	"soctap/internal/soc"
)

func main() {
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is socopt with its arguments, output streams and context made
// explicit, returning the exit code: 0 on success, 1 when the run
// fails, 2 on a usage error, 130 when ctx is cancelled (the telemetry
// report is still written, marked run.cancelled).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("socopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := fs.String("design", "", "built-in design name (d695, d2758, System1..System4) or path to a .soc file")
	width := fs.Int("width", 32, "total TAM width W_TAM in wires")
	styleName := fs.String("style", "tdc-per-core", "architecture style: no-tdc, tdc-per-tam, tdc-per-core")
	verify := fs.Bool("verify", false, "verify the plan by cycle-accurate simulation")
	maxTAMs := fs.Int("max-tams", 0, "cap on the number of TAM buses (0 = number of cores)")
	bandSamples := fs.Int("band-samples", 0, "m values sampled per codeword-width band (0 = default 48, -1 = exhaustive)")
	ateDepth := fs.Int64("ate-depth", 0, "ATE vector memory depth per channel in bits (0 = unlimited)")
	ateFreq := fs.Float64("ate-mhz", 50, "ATE frequency in MHz for wall-clock reporting")
	gantt := fs.Bool("gantt", false, "draw the schedule as an ASCII Gantt chart")
	techsel := fs.Bool("techsel", false, "extend per-core choices with dictionary coding (technique selection)")
	jsonOut := fs.String("json", "", "also write the plan as JSON to this file ('-' for stdout)")
	var f cli.Flags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}
	if *design == "" {
		fs.Usage()
		return cli.ExitUsage
	}
	style, err := core.ParseStyle(*styleName)
	if err != nil {
		fmt.Fprintln(stderr, "socopt:", err)
		return cli.ExitUsage
	}
	cache, err := f.Cache()
	if err != nil {
		fmt.Fprintln(stderr, "socopt:", err)
		return cli.ExitUsage
	}

	r, err := f.Start("socopt", stdout, stderr, false, false)
	if err != nil {
		fmt.Fprintln(stderr, "socopt:", err)
		return 1
	}
	pt := r.Sink.Span("parse").Begin()
	s, err := loadDesign(*design)
	pt.End()
	if err != nil {
		return r.Finish(err)
	}
	res, err := core.OptimizeContext(ctx, s, *width, core.Options{
		Style:      style,
		MaxTAMs:    *maxTAMs,
		Tables:     core.TableOptions{BandSamples: *bandSamples, EvalWindow: f.EvalWindow},
		EnableDict: *techsel,
		Workers:    f.Workers,
		Cache:      cache,
		Telemetry:  r.Sink.Root(),
	})
	if err != nil {
		return r.Finish(err)
	}
	if err := printResult(stdout, res, ate.Tester{Channels: *width, MemoryDepth: *ateDepth, FreqMHz: *ateFreq}); err != nil {
		return r.Finish(err)
	}

	if *gantt {
		items := make([]report.GanttItem, 0, len(res.Choices))
		for _, ch := range res.Choices {
			items = append(items, report.GanttItem{
				Label: ch.Core, Lane: ch.Bus,
				Start: ch.Start, End: ch.Start + ch.Config.Time,
			})
		}
		fmt.Fprintln(stdout)
		if err := report.Gantt(stdout, "schedule", res.Partition, items, 72); err != nil {
			return r.Finish(err)
		}
	}

	if *jsonOut != "" {
		if err := cli.WriteFile(*jsonOut, stdout, res.WritePlan); err != nil {
			return r.Finish(err)
		}
	}

	if *verify {
		fmt.Fprint(stdout, "verifying plan by cycle-accurate simulation... ")
		vt := r.Sink.Span("verify").Begin()
		err := sim.VerifyPlan(res)
		vt.End()
		if err != nil {
			return r.Finish(err)
		}
		fmt.Fprintln(stdout, "ok: all stimuli delivered bit-exactly, volumes match")
	}
	return r.Finish(nil)
}

func loadDesign(name string) (*soc.SOC, error) {
	if s, ok := soc.AllBenchmarks()[name]; ok {
		return s, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%q is not a built-in design and cannot be opened: %w", name, err)
	}
	defer f.Close()
	return soc.Parse(f)
}

func printResult(w io.Writer, res *core.Result, tester ate.Tester) error {
	fmt.Fprintf(w, "design %s: %d cores, style %s, W_TAM = %d\n",
		res.SOC.Name, len(res.SOC.Cores), res.Style, res.WTAM)
	fmt.Fprintf(w, "TAM partition: %v\n", res.Partition)
	fmt.Fprintf(w, "test time: %d cycles", res.TestTime)
	if sec := tester.Seconds(res.TestTime); sec > 0 {
		fmt.Fprintf(w, " (%.3f ms at %.0f MHz)", sec*1e3, tester.FreqMHz)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "ATE stimulus volume: %s Mbit (%d bits), %d bits per channel\n",
		report.Mbits(res.Volume), res.Volume, tester.DepthPerChannel(res.Volume))
	if tester.MemoryDepth > 0 {
		if tester.Fits(res.Volume) {
			fmt.Fprintln(w, "fits ATE vector memory without reload")
		} else {
			fmt.Fprintf(w, "requires %d ATE memory reloads\n", tester.Reloads(res.Volume))
		}
	}
	if res.Decompressors > 0 {
		fmt.Fprintf(w, "decompressors: %d (%d flip-flops, %d gates total)\n",
			res.Decompressors, res.DecompFFs, res.DecompGates)
	}
	fmt.Fprintf(w, "CPU: %.3fs tables + %.3fs architecture search\n", res.TableSeconds, res.CPUSeconds)

	tab := report.NewTable("\nper-core plan (sorted by start time)",
		"core", "bus", "start", "cycles", "mode", "w", "m", "volume (bits)")
	for _, ch := range res.Choices {
		mode := "direct"
		if ch.Config.UseTDC {
			mode = ch.Config.Codec
		}
		tab.Add(ch.Core, fmt.Sprint(ch.Bus), fmt.Sprint(ch.Start),
			fmt.Sprint(ch.Config.Time), mode,
			fmt.Sprint(ch.Config.Width), fmt.Sprint(ch.Config.M),
			fmt.Sprint(ch.Config.Volume))
	}
	return tab.Render(w)
}
