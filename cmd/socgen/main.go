// Command socgen emits synthetic SOC design descriptions in the
// library's ITC'02-inspired text format, for experimenting with the
// optimizer on designs beyond the built-in benchmarks.
//
// Usage:
//
//	socgen -cores 8 -seed 42 -o mydesign.soc
//	socgen -profile industrial -cores 6        # compression-ready cores
//	socgen -profile iscas -cores 10            # dense, few long chains
//	socgen -profile giant -cores 48            # ~1M cubes: streaming-scale
//	socgen -profile giant -cores 2000 -o huge.soc
//	socgen -profile giant -cores 8 -patterns 4000 -scale 0.25   # trimmed giant
//
// The giant profile emits production-scale cores (tens of thousands of
// scan cells and patterns each) intended for the streaming evaluator
// path; -patterns overrides every core's pattern count and -scale
// multiplies the scan structure, which together turn any profile into a
// size family. Output is deterministic in the seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"soctap/internal/cli"
	"soctap/internal/soc"
)

func main() {
	nCores := flag.Int("cores", 6, "number of cores")
	seed := flag.Int64("seed", 1, "generator seed")
	profile := flag.String("profile", "industrial", "core profile: industrial (sparse, many short chains), iscas (dense, few long chains), or giant (streaming-scale cores, millions of cubes)")
	name := flag.String("name", "synth", "SOC name")
	patterns := flag.Int("patterns", 0, "override per-core pattern count (0 = profile default)")
	scale := flag.Float64("scale", 0, "scan-structure size multiplier (0 = 1)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	// SIGINT/SIGTERM abort generation between cores; a second signal
	// kills the process immediately.
	ctx, stop := cli.SignalContext()
	defer stop()

	s, err := soc.Synthesize(ctx, soc.SynthSpec{
		Name:     *name,
		Profile:  *profile,
		Cores:    *nCores,
		Seed:     *seed,
		Patterns: *patterns,
		Scale:    *scale,
	})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "socgen: interrupted:", err)
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := soc.Write(w, s); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socgen:", err)
	os.Exit(1)
}
