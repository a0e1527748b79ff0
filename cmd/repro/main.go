// Command repro regenerates the tables and figures of the paper's
// evaluation section (DATE 2008). Each experiment prints its artifact in
// the paper's layout together with the shape claims being reproduced.
//
// Usage:
//
//	repro [-o output.txt] [-workers N] {fig2|fig3|fig4|tab1|tab2|tab3|all}
//	repro tab3 -telemetry t.json -table-cache .tables
//	repro all -cpuprofile cpu.out -quiet
//
// Flags may also follow the experiment name (the usual
// "verb then options" CLI shape); they are re-parsed after the verb.
//
// Expect `all` to take a few minutes on one CPU: the industrial-core
// lookup tables dominate, and are shared across experiments. The (w, m)
// evaluations fan out over one worker per CPU by default; -workers
// bounds the pool (results are bit-identical for every setting).
//
// Unless -quiet is given, per-phase progress lines go to stderr as each
// artifact, optimizer phase, and per-core table build completes.
// -telemetry writes the full machine-readable run report (phase spans,
// subsystem counters, worker timings) as deterministic JSON;
// -telemetry-text renders the same snapshot as tables on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"soctap/internal/cli"
	"soctap/internal/experiments"
)

func main() {
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is repro with its arguments, output streams and context made
// explicit, returning the exit code: 0 on success, 1 when an
// experiment fails, 2 on a usage error, 130 when ctx is cancelled (the
// telemetry report of the work done so far is still written, marked
// run.cancelled).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write output to this file instead of stdout")
	quiet := fs.Bool("quiet", false, "suppress per-phase progress lines on stderr")
	var f cli.Flags
	f.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: repro [flags] {%s|all} [flags]\n", strings.Join(experiments.Names(), "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return cli.ExitUsage
	}
	// Accept flags after the experiment name too: take the verb, then
	// re-parse the remainder (flag parsing stops at the first
	// positional argument).
	name := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return cli.ParseExit(err)
		}
		if fs.NArg() != 0 {
			fs.Usage()
			return cli.ExitUsage
		}
	}
	names := []string{name}
	if name == "all" {
		names = experiments.Names()
	}
	cache, err := f.Cache()
	if err != nil {
		fmt.Fprintln(stderr, "repro:", err)
		return cli.ExitUsage
	}

	// The sink is on whenever any consumer wants it: progress lines
	// (default), the JSON report, the text report, or the live metrics
	// endpoint. A fully quiet run with no report keeps it nil —
	// instrumentation then costs nothing.
	r, err := f.Start("repro", stdout, stderr, !*quiet, *quiet)
	if err != nil {
		fmt.Fprintln(stderr, "repro:", err)
		return 1
	}
	if !*quiet {
		start := time.Now()
		r.Sink.SetSpanHook(func(path string, d time.Duration) {
			// Per-artifact and per-phase lines plus per-core table
			// builds; deeper search internals (refine/k-sweep cycles)
			// stay out of the progress stream.
			last := path[strings.LastIndexByte(path, '/')+1:]
			if strings.Count(path, "/") <= 1 || strings.HasPrefix(last, "core:") {
				fmt.Fprintf(stderr, "repro: [%7.1fs] %-44s %8.3fs\n",
					time.Since(start).Seconds(), path, d.Seconds())
			}
		})
	}

	env := &experiments.Env{Ctx: ctx, Cache: cache, Workers: f.Workers, EvalWindow: f.EvalWindow, Sink: r.Sink}
	if *out == "" {
		return r.Finish(runExperiments(env, stdout, names))
	}
	return r.Finish(cli.WriteFile(*out, stdout, func(w io.Writer) error {
		return runExperiments(env, w, names)
	}))
}

// runExperiments runs the named experiments in order, rendering each
// with its timing; a run of several separates them with a blank line.
func runExperiments(env *experiments.Env, w io.Writer, names []string) error {
	for _, name := range names {
		start := time.Now()
		res, err := env.Run(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "[%s regenerated in %.1fs]\n", name, time.Since(start).Seconds()); err != nil {
			return err
		}
		if len(names) > 1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}
