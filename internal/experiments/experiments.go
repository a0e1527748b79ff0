// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index). Each experiment
// returns a structured result and can render itself in the paper's
// layout; cmd/repro and the repository's benchmark harness are thin
// wrappers around these functions.
//
// Absolute cycle counts differ from the paper (the industrial cores are
// documented synthetic stand-ins), but each experiment's *shape* — who
// wins, by what factor, where the non-monotonicities fall — is the
// reproduction target, recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"

	"soctap/internal/core"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// Env is what every experiment run shares: the context that can cancel
// it, the table cache that lets consecutive experiments reuse per-core
// lookup tables, the evaluation-engine bounds, and the telemetry sink.
// The zero Env is ready to use. Experiments on one Env run one at a
// time.
type Env struct {
	// Ctx governs every run: cancelling it aborts in-flight
	// Optimize/BuildTable/Sweep calls with ctx.Err(). Nil means
	// context.Background() (the core entry points accept a nil ctx).
	Ctx context.Context
	// Cache memoizes lookup tables across experiments; nil is replaced
	// by a fresh unbounded cache on first use.
	Cache *core.Cache
	// Workers bounds the engine's parallelism (0 = one worker per CPU,
	// 1 = sequential) and EvalWindow its streaming window (0 = automatic
	// by core size). Results are bit-identical for every setting.
	Workers    int
	EvalWindow int
	// Sink receives each experiment's phase spans and the subsystem
	// counters; nil disables instrumentation at zero cost.
	Sink *telemetry.Sink

	span *telemetry.Span // span of the experiment currently running
}

// Renderer is the common shape of every experiment result: it draws
// itself in the paper's layout.
type Renderer interface {
	Render(io.Writer) error
}

// catalog lists every experiment, in the order "all" runs them.
var catalog = []struct {
	name string
	run  func(*Env) (Renderer, error)
}{
	{"fig2", func(e *Env) (Renderer, error) { return e.Fig2() }},
	{"fig3", func(e *Env) (Renderer, error) { return e.Fig3() }},
	{"fig4", func(e *Env) (Renderer, error) { return e.Fig4() }},
	{"tab1", func(e *Env) (Renderer, error) { return e.Tab1() }},
	{"tab2", func(e *Env) (Renderer, error) { return e.Tab2() }},
	{"tab3", func(e *Env) (Renderer, error) { return e.Tab3() }},
	{"ablations", func(e *Env) (Renderer, error) { return e.Ablations() }},
	{"techsel", func(e *Env) (Renderer, error) { return e.TechSel() }},
	{"seeds", func(e *Env) (Renderer, error) { return e.Seeds() }},
	{"verify", func(e *Env) (Renderer, error) { return e.Verify() }},
}

// Names lists every experiment name, in the order "all" runs them.
func Names() []string {
	names := make([]string, len(catalog))
	for i, x := range catalog {
		names[i] = x.name
	}
	return names
}

// Run runs the named experiment.
func (e *Env) Run(name string) (Renderer, error) {
	for _, x := range catalog {
		if x.name == name {
			return x.run(e)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// cache returns the shared table cache, creating it on first use.
func (e *Env) cache() *core.Cache {
	if e.Cache == nil {
		e.Cache = new(core.Cache)
	}
	return e.Cache
}

// begin opens the top-level span for one experiment run and makes it
// the parent of every Optimize call until the returned timing is Ended:
//
//	defer e.begin("tab3").End()
func (e *Env) begin(name string) telemetry.Timing {
	e.Sink.PublishRun("experiment:"+name, "start") // live run marker on the event bus
	e.span = e.Sink.Span(name)                     // nil sink → nil span → all no-ops
	return e.span.Begin()
}

// optimize runs core.OptimizeContext under the Env: it stamps the
// Env's cache, engine bounds and current span onto the experiment's
// Options literal.
func (e *Env) optimize(s *soc.SOC, wtam int, o core.Options) (*core.Result, error) {
	o.Cache = e.cache()
	o.Workers = e.Workers
	o.Telemetry = e.span
	o.Tables.EvalWindow = e.EvalWindow
	return core.OptimizeContext(e.Ctx, s, wtam, o)
}

// tableWidth is the lookup-table width used across experiments: wide
// enough for every W_TAM the paper sweeps.
const tableWidth = 64
