package core

import (
	"context"
	"fmt"
	"time"

	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
	"soctap/internal/wrapper"
)

// TableOptions controls per-core lookup table construction.
type TableOptions struct {
	// MaxWidth is the largest TAM width the table covers, at most
	// MaxTAMWidth. Zero defaults to 64.
	MaxWidth int
	// BandSamples bounds the number of m values evaluated inside each
	// codeword-width band. Bands no larger than the bound are swept
	// exhaustively; larger bands are sampled uniformly, always including
	// both band edges. Zero defaults to 48; negative means exhaustive.
	BandSamples int
	// Workers bounds the goroutines used to evaluate the table's (w, m)
	// points. Zero defaults to runtime.GOMAXPROCS(0); 1 runs entirely on
	// the calling goroutine. The table contents are bit-identical for
	// every setting (workers write indexed slots and the reduction is
	// sequential), so Workers is excluded from cache keys and from the
	// options recorded on the table.
	Workers int
	// EvalWindow is the evaluator's window size in cubes (see
	// evalSource): 0 picks automatically by core size, > 0 prices the
	// test set in windows of that many cubes, and negative values are
	// rejected. A build whose window is shorter than the test set fuses
	// its (w, m) sweep into shared passes over the streamed cubes
	// (fused.go); a whole-set window runs the plain band sweep against
	// the core's cached set. Every window produces a bit-identical table
	// (the golden-digest gate), so EvalWindow only moves peak memory and
	// — like Workers — is erased from cache keys and from the options
	// recorded on the table.
	EvalWindow int
}

func (o TableOptions) withDefaults() TableOptions {
	if o.MaxWidth == 0 {
		o.MaxWidth = 64
	}
	if o.BandSamples == 0 {
		o.BandSamples = 48
	}
	if o.BandSamples < 0 {
		o.BandSamples = -1 // every negative value is exhaustive: one cache key
	}
	return o
}

// normalized is withDefaults plus the erasure of options that do not
// affect table contents — the identity used for cache keys and recorded
// in Table.Opts.
func (o TableOptions) normalized() TableOptions {
	o = o.withDefaults()
	o.Workers = 0
	o.EvalWindow = 0
	return o
}

// forEachEval runs fn(ev, i) for every i in [0, n) through
// parallelFor, giving each worker its own Evaluator for the core (the
// per-worker scratch state of the hot kernel), built on the worker's
// first task. A non-nil tel attaches kernel counters to every evaluator
// and accounts worker busy time. Each evaluator checks ctx at every
// (w, m) kernel entry, so cancellation lands mid-band too; a panic in
// fn surfaces as a *PanicError naming point(i).
func forEachEval(ctx context.Context, c *soc.Core, workers, window, n int, tel *telemetry.Sink, point func(i int) string, fn func(ev *Evaluator, i int) error) error {
	evs := make([]*Evaluator, resolveWorkers(workers, n))
	label := func(i int) (string, string) { return c.Name, point(i) }
	return parallelFor(ctx, workers, n, tel, tel.Timer("eval.worker_busy"), label, func(w, i int) error {
		if evs[w] == nil {
			ev, err := NewEvaluatorWindow(c, window)
			if err != nil {
				return err
			}
			ev.attachTelemetry(tel)
			ev.bindContext(ctx)
			evs[w] = ev
		}
		return fn(evs[w], i)
	})
}

// Table holds, for one core, the best test configuration at every TAM
// width from 1 to MaxWidth, for each access style.
type Table struct {
	Core *soc.Core
	Opts TableOptions

	// NoTDC[u] is the direct-access configuration using u wrapper chains
	// (clamped to the core's maximum useful chains).
	NoTDC []Config
	// TDCExact[u] is the best decompressor configuration whose input
	// width is exactly u, i.e. the best m in u's band (infeasible when
	// the band lies wholly above the core's maximum chains or u < 3).
	TDCExact []Config
	// TDCBest[u] is the best decompressor configuration with input
	// width at most u (unused TAM wires are left idle).
	TDCBest []Config
	// Best[u] is the proposed style's choice: the better of NoTDC[u]
	// and TDCBest[u].
	Best []Config
}

// BuildTableContext constructs the lookup table for one core by
// exhaustive wrapper design on the no-TDC side and banded (w, m)
// exploration on the TDC side, exactly as Section 2 of the paper
// prescribes. The (w, m) evaluations — the dominant CPU cost of every
// experiment — fan out over Opts.Workers goroutines; the result is
// bit-identical to a sequential build. Cancellation of ctx is observed
// between evaluation points and inside the kernels themselves, so a
// cancelled build returns ctx.Err() promptly. A nil ctx behaves like
// context.Background().
func BuildTableContext(ctx context.Context, c *soc.Core, opts TableOptions) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return buildTable(ctx, c, opts, nil)
}

// buildTable is BuildTableContext with an optional telemetry sink:
// kernel counters attach to every worker's evaluator, worker busy time
// is accounted, and the build itself is counted.
func buildTable(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	opts = opts.withDefaults()
	if err := CheckTAMWidth(opts.MaxWidth); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Validate the core's test set up front. A whole-set window also
	// generates it, warming the cache every worker's Evaluator shares; a
	// shorter window only probes the generator spec, since materializing
	// the set would defeat its O(window) residency.
	src, window, err := evalSource(c, opts.EvalWindow)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Core:     c,
		Opts:     opts.normalized(),
		NoTDC:    make([]Config, opts.MaxWidth+1),
		TDCExact: make([]Config, opts.MaxWidth+1),
		TDCBest:  make([]Config, opts.MaxWidth+1),
		Best:     make([]Config, opts.MaxWidth+1),
	}
	maxM := c.MaxWrapperChains()

	// Collect the TDC evaluation points: each codeword-width band is one
	// unit that sweeps its sampled m values highest first, pruning
	// candidates whose lower bound is strictly worse than the band
	// incumbent (see sweepBand and sweepBandsFused). Band-granular
	// incumbents keep both the winner and the prune counters
	// deterministic for any worker count.
	var bands []bandJob
	for w := 3; w <= opts.MaxWidth; w++ {
		lo, hi, err := selenc.MBand(w)
		if err != nil {
			return nil, err
		}
		if lo > maxM {
			break // all wider bands are infeasible too
		}
		if hi > maxM {
			hi = maxM
		}
		bands = append(bands, bandJob{w: w, ms: sampleBand(lo, hi, opts.BandSamples)})
	}

	// The no-TDC side only depends on the clamped chain count, so the
	// distinct designs are m = 1..min(MaxWidth, maxM); widths beyond
	// maxM reuse the maxM configuration with the width relabeled.
	directM := opts.MaxWidth
	if directM > maxM {
		directM = maxM
	}
	direct := make([]Config, directM+1)

	tel.Counter("tables.built").Inc()
	buildStart := time.Now()
	pc := pruneCounters{
		pruned:     tel.Counter("eval.pruned"),
		corePruned: tel.Counter("prune." + c.Name + ".pruned"),
		coreEvals:  tel.Counter("prune." + c.Name + ".evals"),
	}
	point := func(i int) string {
		if i < directM {
			return fmt.Sprintf("no-tdc m=%d", i+1)
		}
		return fmt.Sprintf("tdc band w=%d", bands[i-directM].w)
	}
	// A window shorter than the test set fuses the banded sweep: every
	// loaded window is priced against all active (w, m) points before
	// the next loads, so the source is traversed once per batch instead
	// of once per point. A whole-set window is already resident, so its
	// bands run the plain sweep on the worker pool. The no-TDC side is
	// closed-form (no cube pass) and stays on the pool either way.
	fused := window < src.Len()
	n := directM + len(bands)
	if fused {
		n = directM
	}
	err = forEachEval(ctx, c, opts.Workers, opts.EvalWindow, n, tel, point, func(ev *Evaluator, i int) error {
		if i < directM {
			cfg, err := ev.NoTDC(i + 1)
			if err != nil {
				return err
			}
			direct[i+1] = cfg
			return nil
		}
		b := &bands[i-directM]
		best, err := sweepBand(ev, b.w, b.ms, pc)
		if err != nil {
			return err
		}
		b.best = best
		return nil
	})
	if err == nil && fused && len(bands) > 0 {
		err = sweepBandsFused(ctx, c, opts, bands, pc, tel)
	}
	if err != nil {
		if canceled(err) {
			tel.Counter("cancel.table_builds").Inc()
		}
		return nil, err
	}

	// Deterministic reduction, identical to the sequential sweep order.
	for u := 1; u <= opts.MaxWidth; u++ {
		m := u
		if m > directM {
			m = directM
		}
		cfg := direct[m]
		// Width is the full TAM allocation even when chains are clamped.
		cfg.Width = u
		t.NoTDC[u] = cfg
	}
	for _, b := range bands {
		t.TDCExact[b.w] = b.best
	}
	for u := 1; u <= opts.MaxWidth; u++ {
		best := Config{}
		if u >= 3 {
			best = t.TDCBest[u-1]
			if t.TDCExact[u].better(best) {
				best = t.TDCExact[u]
			}
		}
		t.TDCBest[u] = best
		if t.NoTDC[u].better(best) {
			t.Best[u] = t.NoTDC[u]
		} else {
			t.Best[u] = best
		}
	}
	// One observation per completed build: the count mirrors
	// tables.built on clean runs (failed/cancelled builds are absent),
	// the distribution is wall clock.
	tel.Histogram("tables.build_seconds").Observe(time.Since(buildStart))
	return t, nil
}

// bandJob is one codeword-width band of the TDC sweep: the sampled m
// values and, once swept, the band's winning configuration.
type bandJob struct {
	w    int
	ms   []int
	best Config
}

// pruneCounters carries the (nil-safe) telemetry counters of the band
// sweep: pruned candidates globally and pruned/evaluated per core.
type pruneCounters struct {
	pruned     *telemetry.Counter
	corePruned *telemetry.Counter
	coreEvals  *telemetry.Counter
}

// sweepBand finds the best TDC configuration in one codeword-width
// band, sweeping the sampled m values from highest to lowest. Once an
// incumbent exists, each candidate is first checked against two
// admissible lower bounds — one from the core alone (no wrapper
// design), then one from the exact wrapper depths — and skipped when
// the bound is already strictly lex-worse (time, then volume) than the
// incumbent.
//
// The result is identical to evaluating every candidate: both bounds
// are true lower bounds on (time, volume), so a pruned candidate's
// actual cost is strictly worse than the incumbent and can never be the
// band winner; lex-equal candidates are never pruned (their bound is
// not strictly worse) and ties resolve to the smallest m exactly as an
// ascending first-win reduction would.
func sweepBand(ev *Evaluator, w int, ms []int, pc pruneCounters) (Config, error) {
	var best Config
	for i := len(ms) - 1; i >= 0; i-- {
		m := ms[i]
		if best.Feasible {
			if bt, bv := coreBound(ev, m, w); boundWorse(bt, bv, best) {
				pc.pruned.Inc()
				pc.corePruned.Inc()
				continue
			}
			d, err := ev.Design(m)
			if err != nil {
				return Config{}, err
			}
			if bt, bv := designBound(ev, d, w); boundWorse(bt, bv, best) {
				pc.pruned.Inc()
				pc.corePruned.Inc()
				continue
			}
		}
		cfg, err := ev.TDC(m, true)
		if err != nil {
			return Config{}, err
		}
		pc.coreEvals.Inc()
		// Replace on lex-<=: at equal (time, volume) the smaller m wins,
		// matching the ascending-order reduction.
		if !best.better(cfg) {
			best = cfg
		}
	}
	return best, nil
}

// boundWorse reports whether a (time, volume) lower bound is strictly
// lex-worse than the incumbent — the pruning condition.
func boundWorse(bt, bv int64, best Config) bool {
	return bt > best.Time || (bt == best.Time && bv > best.Volume)
}

// coreBound is an admissible (time, volume) lower bound for the TDC
// configuration at m wrapper chains, computed from the core alone:
//
//	si >= max(longest scan chain, ceil(stimulus bits / m))
//	so >= max(longest scan chain, ceil(response bits / m))
//
// (any wrapper chain holding the longest internal scan chain is at
// least that deep, and m chains must share all cells), and then
//
//	τ = cw_1 + Σ_{j>1} max(cw_j, so) + p + so >= si + (p-1)·max(si,so) + p + so
//	V = totalCW·w               >= p·si·w
//
// since every pattern emits at least one codeword per scan-in slice
// (the slice headers).
func coreBound(ev *Evaluator, m, w int) (timeLB, volLB int64) {
	c := ev.core
	maxScan := 0
	for _, l := range c.ScanChains {
		if l > maxScan {
			maxScan = l
		}
	}
	si := (c.StimulusBits() + m - 1) / m
	if maxScan > si {
		si = maxScan
	}
	so := (c.ResponseBits() + m - 1) / m
	if maxScan > so {
		so = maxScan
	}
	return slicesBound(ev.patterns, int64(si), int64(so), int64(w))
}

// designBound is coreBound with the exact scan-in/scan-out depths of a
// built wrapper design — tighter, at the price of the design itself.
func designBound(ev *Evaluator, d *wrapper.Design, w int) (timeLB, volLB int64) {
	return slicesBound(ev.patterns, int64(d.ScanIn), int64(d.ScanOut), int64(w))
}

func slicesBound(p int, si, so, w int64) (timeLB, volLB int64) {
	timeLB = int64(p) + so
	if p >= 1 {
		maxL := si
		if so > maxL {
			maxL = so
		}
		timeLB += si + int64(p-1)*maxL
	}
	return timeLB, int64(p) * si * w
}

// sampleBand returns the m values to evaluate in [lo, hi]: exhaustive
// when the band fits within `samples`, else `samples` points spread
// uniformly and including both edges. samples < 0 means exhaustive.
func sampleBand(lo, hi, samples int) []int {
	n := hi - lo + 1
	if samples < 0 || n <= samples {
		out := make([]int, 0, n)
		for m := lo; m <= hi; m++ {
			out = append(out, m)
		}
		return out
	}
	if samples == 1 {
		return []int{hi}
	}
	out := make([]int, 0, samples)
	prev := -1
	for i := 0; i < samples; i++ {
		m := lo + (n-1)*i/(samples-1)
		if m != prev {
			out = append(out, m)
			prev = m
		}
	}
	return out
}

// SweepTDCContext evaluates every m in [lo, hi] (inclusive, clamped to
// the core's feasible range) with the decompressor enabled, returning
// one Config per m in order — the Figure 2 analysis. The points fan out
// over workers goroutines (zero means runtime.GOMAXPROCS(0), 1 is fully
// sequential); the result is identical for every bound. Cancellation of
// ctx is observed between m points and inside the kernels, so a
// cancelled sweep returns ctx.Err() promptly. A nil ctx behaves like
// context.Background().
func SweepTDCContext(ctx context.Context, c *soc.Core, lo, hi, workers int) ([]Config, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lo < 1 {
		lo = 1
	}
	if maxM := c.MaxWrapperChains(); hi > maxM {
		hi = maxM
	}
	if hi < lo {
		return nil, fmt.Errorf("core: empty sweep range [%d,%d] for %s", lo, hi, c.Name)
	}
	if _, _, err := evalSource(c, 0); err != nil {
		return nil, err
	}
	out := make([]Config, hi-lo+1)
	point := func(i int) string { return fmt.Sprintf("tdc m=%d", lo+i) }
	err := forEachEval(ctx, c, workers, 0, len(out), nil, point, func(ev *Evaluator, i int) error {
		cfg, err := ev.TDC(lo+i, true)
		if err != nil {
			return err
		}
		out[i] = cfg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
