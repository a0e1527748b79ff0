package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"soctap/internal/decomp"
	"soctap/internal/dictenc"
	"soctap/internal/sched"
	"soctap/internal/soc"
	"soctap/internal/tam"
	"soctap/internal/telemetry"
)

// Style selects the test-access architecture style (Figure 4 of the
// paper).
type Style int

const (
	// StyleNoTDC (Fig. 4a): cores are accessed directly over TAM wires,
	// no compression.
	StyleNoTDC Style = iota
	// StyleTDCPerTAM (Fig. 4b): one decompressor at the head of each
	// TAM expands the bus onto wide internal wrapper-chain wiring shared
	// by the cores on that TAM. Cores whose structure cannot use the
	// bus's expansion band are tested in bypass (no-TDC) mode.
	StyleTDCPerTAM
	// StyleTDCPerCore (Fig. 4c, the proposed scheme): each core has its
	// own decompressor between its wrapper and the TAM; per core, the
	// optimizer picks compressed or direct access, whichever is faster.
	StyleTDCPerCore
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleNoTDC:
		return "no-tdc"
	case StyleTDCPerTAM:
		return "tdc-per-tam"
	case StyleTDCPerCore:
		return "tdc-per-core"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// ParseStyle maps a style name (see Style.String) back to its Style.
func ParseStyle(name string) (Style, error) {
	for _, s := range []Style{StyleNoTDC, StyleTDCPerTAM, StyleTDCPerCore} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown style %q (want no-tdc, tdc-per-tam, tdc-per-core)", name)
}

// MaxTAMWidth bounds the total TAM width W_TAM and a table's MaxWidth.
// Each table holds 4 × (MaxWidth+1) configurations per core and the
// search a cores × (W_TAM+1) duration matrix, so an unbounded width
// is an unbounded allocation; 4096 is 64× the widest width any
// experiment or benchmark uses.
const MaxTAMWidth = 4096

// CheckTAMWidth rejects a TAM width outside [1, MaxTAMWidth] — the one
// width check of OptimizeContext, table builds and the socserve
// request parser.
func CheckTAMWidth(width int) error {
	if width < 1 || width > MaxTAMWidth {
		return fmt.Errorf("core: TAM width %d outside [1, %d]", width, MaxTAMWidth)
	}
	return nil
}

// Options controls the SOC-level optimization.
type Options struct {
	Style  Style
	Tables TableOptions
	// MaxTAMs caps the number of TAM buses explored. Zero defaults to
	// min(number of cores, W_TAM).
	MaxTAMs int
	// MaxIterations bounds hill-climbing rounds per bus count. Zero
	// defaults to 64.
	MaxIterations int
	// Cache, when non-nil, memoizes per-core lookup tables across runs;
	// bound it and layer a persistent on-disk store under it with
	// SetMemLimit, SetDiskLimit and SetDir. Nil builds every table.
	Cache *Cache
	// DisableRefinement turns off the wire-moving local search (ablation
	// knob); only even partitions are considered.
	DisableRefinement bool
	// NaiveOrder schedules cores in declaration order instead of
	// longest-first (ablation knob).
	NaiveOrder bool
	// EnableDict extends the per-core choice with dictionary coding
	// (technique selection, the ATS'08 follow-up). Only meaningful with
	// StyleTDCPerCore. DictSizes defaults to DefaultDictSizes.
	EnableDict bool
	DictSizes  []int
	// MergeSearch additionally seeds the architecture search with a
	// bottom-up bus-merging pass (in the spirit of Goel & Marinissen's
	// TR-Architect): start from many narrow buses and repeatedly merge
	// the pair that shortens the schedule most. The best of the even-
	// split and merge-seeded searches wins.
	MergeSearch bool
	// Workers bounds the evaluation engine's parallelism: per-core
	// lookup tables are built concurrently, each table's (w, m)
	// exploration fans out over the same bound (unless Tables.Workers
	// overrides it), and the architecture search evaluates candidate
	// partitions concurrently. Zero defaults to runtime.GOMAXPROCS(0);
	// 1 recovers the fully sequential engine. Results are bit-identical
	// for every setting.
	Workers int
	// Telemetry, when non-nil, is the parent span this run records
	// under: phase spans (tables with one child per core, search with
	// k-sweep/refine/merge children, schedule) plus the subsystem
	// counters registered on the span's sink. Nil disables all
	// instrumentation at zero cost.
	Telemetry *telemetry.Span
}

// CoreChoice reports the configuration chosen for one core.
type CoreChoice struct {
	Core   string
	Bus    int
	Start  int64
	Config Config
}

// Result is a complete SOC test plan.
type Result struct {
	SOC       *soc.SOC
	Style     Style
	WTAM      int
	Partition tam.Partition
	Schedule  *sched.Schedule
	Choices   []CoreChoice

	TestTime int64 // schedule makespan in cycles
	Volume   int64 // total ATE stimulus storage in bits

	// InternalWires counts the wrapper-chain wires behind the
	// decompressors: the long shared buses of the per-TAM style versus
	// the short local fan-out of the per-core style. For the no-TDC
	// style it equals the TAM width.
	InternalWires int
	Decompressors int
	DecompFFs     int
	DecompGates   int

	// TableSeconds is the time spent building per-core lookup tables
	// (the "TDC time" the paper excludes from its CPU column);
	// CPUSeconds is the architecture search and scheduling time.
	TableSeconds float64
	CPUSeconds   float64
}

// Optimize designs a test architecture and schedule for the SOC under a
// total TAM width budget, following the four-step heuristic of Section 3
// of the paper: wrapper design and decompression design are captured in
// the per-core lookup tables; architecture design enumerates bus counts
// with even splits refined by single-wire moves; scheduling is greedy
// longest-first.
func Optimize(s *soc.SOC, wtam int, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), s, wtam, opts)
}

// OptimizeContext is Optimize governed by ctx. Cancellation is
// cooperative and fine-grained — observed at every (w, m) table point
// and every candidate schedule — so a cancelled run returns ctx.Err()
// promptly, with all worker goroutines drained (never leaked) and a
// `cancel.runs` mark on the run's telemetry sink. A nil ctx behaves
// like context.Background(), and an uncancelled run is bit-identical
// to Optimize.
func OptimizeContext(ctx context.Context, s *soc.SOC, wtam int, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := CheckTAMWidth(wtam); err != nil {
		return nil, err
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 64
	}
	tabOpts := opts.Tables
	if tabOpts.MaxWidth == 0 {
		tabOpts.MaxWidth = wtam
		if tabOpts.MaxWidth < 64 {
			tabOpts.MaxWidth = 64
		}
	}
	if tabOpts.MaxWidth < wtam {
		return nil, fmt.Errorf("core: table MaxWidth %d below W_TAM %d", tabOpts.MaxWidth, wtam)
	}

	if tabOpts.Workers == 0 {
		tabOpts.Workers = opts.Workers
	}
	tel := opts.Telemetry
	defer func() {
		if canceled(err) {
			tel.Sink().Counter("cancel.runs").Inc()
		}
	}()

	tStart := time.Now()
	spTables := tel.Child("tables")
	tablesTiming := spTables.Begin()
	selectors, err := buildSelectors(ctx, s, tabOpts, opts, spTables)
	if err != nil {
		return nil, err
	}
	tablesTiming.End()
	tableSeconds := time.Since(tStart).Seconds()

	searchStart := time.Now()
	kmax := opts.MaxTAMs
	if kmax <= 0 {
		kmax = len(s.Cores)
	}
	if kmax > wtam {
		kmax = wtam
	}

	sctx := newSearchCtx(ctx, s, wtam, selectors, opts)

	spSearch := tel.Child("search")
	spRefine := spSearch.Child("refine")
	searchTiming := spSearch.Begin()
	var bestPart tam.Partition
	bestMk := int64(-1)
	consider := func(part tam.Partition, mk int64) error {
		if !opts.DisableRefinement {
			rt := spRefine.Begin()
			var err error
			part, mk, err = sctx.refine(part, mk, opts.MaxIterations)
			rt.End()
			if err != nil {
				return err
			}
		}
		if bestMk < 0 || mk < bestMk {
			bestPart, bestMk = part, mk
		}
		return nil
	}
	// Even splits for every bus count are independent; evaluate the
	// whole sweep as one batch, then refine in k order.
	evens := make([]tam.Partition, 0, kmax)
	for k := 1; k <= kmax; k++ {
		part, err := tam.Even(wtam, k)
		if err != nil {
			return nil, err
		}
		evens = append(evens, part)
	}
	kt := spSearch.Child("k-sweep").Begin()
	evenMks, err := sctx.evalBatch(evens)
	kt.End()
	// An aborted batch (error) leaves makespans that mean nothing; only
	// a complete one tells infeasibility (-1) apart.
	if err != nil {
		return nil, err
	}
	for k, mk := range evenMks {
		if mk <= 0 {
			// Recover the scheduler's error for the message.
			_, err := sctx.schedule(evens[k])
			return nil, fmt.Errorf("core: scheduling %d buses: %w", k+1, err)
		}
		if err := consider(evens[k], mk); err != nil {
			return nil, err
		}
	}
	if opts.MergeSearch {
		mt := spSearch.Child("merge").Begin()
		part, mk, err := sctx.mergeSearch(wtam, kmax)
		mt.End()
		if err != nil {
			return nil, err
		}
		if err := consider(part, mk); err != nil {
			return nil, err
		}
	}
	searchTiming.End()
	// Materialize the winning schedule (the search compares makespans
	// only); by construction it reproduces bestMk.
	st := tel.Child("schedule").Begin()
	bestSched, err := sctx.schedule(bestPart)
	st.End()
	if err != nil {
		return nil, err
	}
	cpuSeconds := time.Since(searchStart).Seconds()

	res = &Result{
		SOC:          s,
		Style:        opts.Style,
		WTAM:         wtam,
		Partition:    bestPart,
		Schedule:     bestSched,
		TestTime:     bestSched.Makespan,
		TableSeconds: tableSeconds,
		CPUSeconds:   cpuSeconds,
	}
	fillDetails(res, selectors)
	return res, nil
}

// buildSelectors prepares each core's configuration selector, building
// the per-core lookup tables concurrently (bounded by opts.Workers).
// Cache hits go through the singleflight Cache.GetInstrumentedContext,
// so concurrent optimizer runs sharing a cache never duplicate a build.
// Per-core telemetry spans are created under parent on the calling
// goroutine, in core order, before the fan-out — worker scheduling
// therefore never changes the span tree.
//
// The fan-out is parallelFor's: workers stop claiming cores after the
// first error or once ctx ends, the error of the lowest-index core is
// returned, and a panic during one core's build is contained as a
// *PanicError naming the core.
func buildSelectors(ctx context.Context, s *soc.SOC, tabOpts TableOptions, opts Options, parent *telemetry.Span) ([]selector, error) {
	sink := parent.Sink()
	coreSpans := make([]*telemetry.Span, len(s.Cores))
	if parent != nil { // skip building span names nobody records
		for i, c := range s.Cores {
			coreSpans[i] = parent.Child("core:" + c.Name)
		}
	}
	selectors := make([]selector, len(s.Cores))
	label := func(i int) (string, string) { return s.Cores[i].Name, "table/selector build" }
	err := parallelFor(ctx, opts.Workers, len(s.Cores), sink, nil, label, func(_, i int) error {
		ct := coreSpans[i].Begin()
		defer ct.End()
		c := s.Cores[i]
		var t *Table
		var err error
		if opts.Cache != nil {
			t, err = opts.Cache.GetInstrumentedContext(ctx, c, tabOpts, sink)
		} else {
			t, err = buildTable(ctx, c, tabOpts, sink)
		}
		if err != nil {
			return err
		}
		if opts.EnableDict && opts.Style == StyleTDCPerCore {
			sel, err := selectTechniquesWithTable(c, t, opts.DictSizes)
			if err != nil {
				return err
			}
			selectors[i] = sel.selector()
			return nil
		}
		selectors[i] = tableSelector(opts.Style, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return selectors, nil
}

// searchCtx carries the architecture search's shared state: the dense
// duration matrix and one schedule planner per worker. One context
// spans the whole search of an Optimize call — the k-loop, every
// refine, and the merge pass.
type searchCtx struct {
	nCores int
	wtam   int
	durMat []int64 // dur[core*(wtam+1)+width], widths 1..wtam
	naive  bool
	// ctx governs the search; cancellable contexts also reach every
	// planner as sched.Planner.Check, consulted per candidate schedule.
	ctx  context.Context
	sink *telemetry.Sink
	// durFn is sc.dur and evalFn sc.evalCand, each bound once so the
	// hot loops don't allocate a method value per schedule evaluation
	// or per batch.
	durFn  sched.Duration
	evalFn func(worker, i int) error
	// planners holds one scratch planner per batch worker; planners[0]
	// also materializes the winning schedule. They share the
	// sched.placements counter and sched.schedule_seconds histogram
	// (both atomic).
	planners []sched.Planner
	// cands and mks are the batch in flight: evalBatch sets them for
	// evalCand.
	cands []tam.Partition
	mks   []int64
}

// newSearchCtx precomputes the dense duration matrix: one flat int64
// per (core, width) pair, replacing the selector->chooseConfig->table
// closure chain in the scheduler's inner loop with an array load.
func newSearchCtx(ctx context.Context, s *soc.SOC, wtam int, selectors []selector, opts Options) *searchCtx {
	sc := &searchCtx{
		nCores:   len(s.Cores),
		wtam:     wtam,
		durMat:   make([]int64, len(s.Cores)*(wtam+1)),
		naive:    opts.NaiveOrder,
		ctx:      ctx,
		sink:     opts.Telemetry.Sink(),
		planners: make([]sched.Planner, resolveWorkers(opts.Workers, math.MaxInt)),
	}
	for c := range s.Cores {
		row := sc.durMat[c*(wtam+1) : (c+1)*(wtam+1)]
		for w := 1; w <= wtam; w++ {
			if cfg := selectors[c](w); cfg.Feasible {
				row[w] = cfg.Time
			}
		}
	}
	sc.durFn = sc.dur
	sc.evalFn = sc.evalCand
	pl := sched.Planner{
		Placements:      sc.sink.Counter("sched.placements"),
		ScheduleSeconds: sc.sink.Histogram("sched.schedule_seconds"),
	}
	if ctx.Done() != nil {
		pl.Check = ctx.Err
	}
	for i := range sc.planners {
		sc.planners[i] = pl
	}
	return sc
}

// dur is the scheduler's duration callback over the dense matrix.
// Partition widths never exceed W_TAM, but clamp defensively to match
// chooseConfig's behavior.
func (sc *searchCtx) dur(core, width int) int64 {
	if width < 1 {
		return 0
	}
	if width > sc.wtam {
		width = sc.wtam
	}
	return sc.durMat[core*(sc.wtam+1)+width]
}

// schedule materializes the full schedule for a partition — used only
// for the search winner; the search itself runs on makespans.
func (sc *searchCtx) schedule(p tam.Partition) (*sched.Schedule, error) {
	if sc.naive {
		return sc.planners[0].InOrder(sc.nCores, p, sc.durFn)
	}
	return sc.planners[0].Greedy(sc.nCores, p, sc.durFn)
}

// makespan evaluates one partition on the given planner: the schedule's
// makespan, or -1 when some core is infeasible on every bus.
func (sc *searchCtx) makespan(p tam.Partition, pl *sched.Planner) int64 {
	var mk int64
	var err error
	if sc.naive {
		mk, err = pl.InOrderMakespan(sc.nCores, p, sc.durFn)
	} else {
		mk, err = pl.GreedyMakespan(sc.nCores, p, sc.durFn)
	}
	if err != nil {
		return -1
	}
	return mk
}

// evalBatch returns the makespan of every candidate partition (aligned
// with cands; -1 marks infeasible), fanning the batch out through
// parallelFor. Each candidate is a pure function of its partition and
// is written to an indexed slot, so the result — and every search
// decision derived from it — is bit-identical for any Workers setting.
// A non-nil error (a contained panic, or ctx's) means the batch was
// cut short and its makespans must not be read.
func (sc *searchCtx) evalBatch(cands []tam.Partition) ([]int64, error) {
	mks := make([]int64, len(cands))
	sc.cands, sc.mks = cands, mks
	err := parallelFor(sc.ctx, len(sc.planners), len(cands), sc.sink, nil, searchLabel, sc.evalFn)
	return mks, err
}

// evalCand is one task of evalBatch: candidate i on the worker's
// planner.
func (sc *searchCtx) evalCand(w, i int) error {
	sc.mks[i] = sc.makespan(sc.cands[i], &sc.planners[w])
	return nil
}

// searchLabel names a contained panic of a search batch.
func searchLabel(int) (string, string) { return "", "schedule evaluation" }

// refine hill-climbs over single-wire moves between buses, taking the
// best improving neighbor each round (partitions deduplicated by
// canonical key). Each round's neighborhood is evaluated as one batch;
// the reduction scans in the sequential (from, to) order, so the chosen
// neighbor matches the sequential search exactly.
func (sc *searchCtx) refine(part tam.Partition, mk int64, maxIter int) (tam.Partition, int64, error) {
	seen := map[string]bool{part.Key(): true}
	var cands []tam.Partition
	for iter := 0; iter < maxIter; iter++ {
		cands = cands[:0]
		for from := range part {
			for to := range part {
				if from == to {
					continue
				}
				q, err := part.MoveWire(from, to)
				if err != nil {
					continue
				}
				key := q.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				cands = append(cands, q)
			}
		}
		if len(cands) == 0 {
			return part, mk, nil
		}
		mks, err := sc.evalBatch(cands)
		if err != nil {
			return nil, 0, err
		}
		best := -1
		for i := range cands {
			if mks[i] <= 0 {
				continue // infeasible neighbor
			}
			if best < 0 || mks[i] < mks[best] {
				best = i
			}
		}
		if best < 0 || mks[best] >= mk {
			return part, mk, nil
		}
		part, mk = cands[best], mks[best]
	}
	return part, mk, nil
}

// mergeSearch runs the bottom-up pass: start from kmax unit-ish buses
// and repeatedly merge the pair of buses whose union shortens the
// schedule most (or hurts it least), keeping the best partition seen.
// Each round's merge candidates are evaluated as one batch.
func (sc *searchCtx) mergeSearch(wtam, kmax int) (tam.Partition, int64, error) {
	part, err := tam.Even(wtam, kmax)
	if err != nil {
		return nil, 0, err
	}
	mks, err := sc.evalBatch([]tam.Partition{part})
	if err != nil {
		return nil, 0, err
	}
	mk := mks[0]
	if mk <= 0 {
		_, err := sc.schedule(part)
		return nil, 0, fmt.Errorf("core: merge search seed: %w", err)
	}
	bestPart, bestMk := part, mk
	var cands []tam.Partition
	for len(part) > 1 {
		// Widths matter, positions do not: merging bus i into bus j is
		// characterized by the merged width, so only distinct pairs of
		// widths need scheduling.
		tried := map[[2]int]bool{}
		cands = cands[:0]
		for i := 0; i < len(part); i++ {
			for j := i + 1; j < len(part); j++ {
				key := [2]int{part[i], part[j]}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if tried[key] {
					continue
				}
				tried[key] = true
				merged := make(tam.Partition, 0, len(part)-1)
				merged = append(merged, part[:i]...)
				merged = append(merged, part[i+1:j]...)
				merged = append(merged, part[j+1:]...)
				merged = append(merged, part[i]+part[j])
				cands = append(cands, merged)
			}
		}
		mks, err := sc.evalBatch(cands)
		if err != nil {
			return nil, 0, err
		}
		next := -1
		for i := range cands {
			if mks[i] <= 0 {
				continue
			}
			if next < 0 || mks[i] < mks[next] {
				next = i
			}
		}
		if next < 0 {
			break
		}
		part, mk = cands[next], mks[next]
		if mk < bestMk {
			bestPart, bestMk = part, mk
		}
	}
	return bestPart, bestMk, nil
}

// selector resolves the configuration one core uses on a bus of a given
// width.
type selector func(width int) Config

// tableSelector adapts a lookup table to a selector under a style.
func tableSelector(style Style, t *Table) selector {
	return func(width int) Config { return chooseConfig(style, t, width) }
}

// selector adapts a technique selection to the optimizer.
func (ts *TechSelection) selector() selector {
	return func(width int) Config {
		if width < 1 {
			return Config{}
		}
		if width >= len(ts.PerWidth) {
			width = len(ts.PerWidth) - 1
		}
		return ts.PerWidth[width]
	}
}

// chooseConfig resolves the configuration a core uses on a bus of the
// given width under a style.
func chooseConfig(style Style, t *Table, width int) Config {
	if width < 1 {
		return Config{}
	}
	if width > t.Opts.MaxWidth {
		width = t.Opts.MaxWidth
	}
	switch style {
	case StyleNoTDC:
		return t.NoTDC[width]
	case StyleTDCPerTAM:
		// The TAM-head decompressor consumes the full bus width; cores
		// that cannot use the expansion band run in bypass mode.
		if cfg := t.TDCExact[width]; cfg.Feasible {
			return cfg
		}
		return t.NoTDC[width]
	case StyleTDCPerCore:
		return t.Best[width]
	default:
		return Config{}
	}
}

// fillDetails derives volumes, choices and hardware accounting from the
// winning schedule.
func fillDetails(res *Result, selectors []selector) {
	res.Choices = make([]CoreChoice, 0, len(res.SOC.Cores))
	// Per-bus widest decompressor output for the per-TAM style.
	busM := make([]int, len(res.Partition))

	for _, it := range res.Schedule.Items {
		cfg := selectors[it.Core](res.Partition[it.Bus])
		res.Choices = append(res.Choices, CoreChoice{
			Core:   res.SOC.Cores[it.Core].Name,
			Bus:    it.Bus,
			Start:  it.Start,
			Config: cfg,
		})
		res.Volume += cfg.Volume
		if cfg.UseTDC {
			switch res.Style {
			case StyleTDCPerCore:
				res.InternalWires += cfg.M
				res.Decompressors++
				if cfg.Codec == CodecDict {
					hc := dictenc.CostFor(cfg.M, cfg.DictWords)
					res.DecompFFs += hc.FFs
					res.DecompGates += hc.Gates + hc.SRAMBits/8 // SRAM counted as gate equivalents
				} else {
					hc := decomp.HardwareCost(cfg.M)
					res.DecompFFs += hc.FlipFlops
					res.DecompGates += hc.Gates
				}
			case StyleTDCPerTAM:
				if cfg.M > busM[it.Bus] {
					busM[it.Bus] = cfg.M
				}
			}
		}
	}
	switch res.Style {
	case StyleNoTDC:
		res.InternalWires = res.Partition.TotalWidth()
	case StyleTDCPerTAM:
		for _, m := range busM {
			if m == 0 {
				continue
			}
			res.InternalWires += m
			res.Decompressors++
			hc := decomp.HardwareCost(m)
			res.DecompFFs += hc.FlipFlops
			res.DecompGates += hc.Gates
		}
	}
}
