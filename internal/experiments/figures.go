package experiments

import (
	"fmt"
	"io"

	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/selenc"
	"soctap/internal/soc"
)

// Fig2Result is the per-m test-time sweep of Figure 2: core ckt-7 at a
// fixed TAM width (w = 10, m in [128, 255]).
type Fig2Result struct {
	CoreName string
	W        int
	Ms       []int
	Times    []int64

	TauMax, TauMin int64
	MAtMin         int
	// SpreadPct is (τmax-τmin)/τmax in percent; the paper reports 31%.
	SpreadPct float64
	// InteriorMin reports whether the minimum falls strictly inside the
	// band — the paper's headline observation that "more wrapper chains"
	// is not automatically better.
	InteriorMin bool
}

// Fig2 sweeps every m in the w=10 band for ckt-7.
func (e *Env) Fig2() (*Fig2Result, error) {
	defer e.begin("fig2").End()
	c, err := soc.IndustrialCore("ckt-7")
	if err != nil {
		return nil, err
	}
	lo, hi, err := selenc.MBand(10)
	if err != nil {
		return nil, err
	}
	cfgs, err := core.SweepTDCContext(e.Ctx, c, lo, hi, e.Workers)
	if err != nil {
		return nil, err
	}
	r := &Fig2Result{CoreName: c.Name, W: 10}
	for i, cfg := range cfgs {
		m := lo + i
		r.Ms = append(r.Ms, m)
		r.Times = append(r.Times, cfg.Time)
		if i == 0 || cfg.Time > r.TauMax {
			r.TauMax = cfg.Time
		}
		if i == 0 || cfg.Time < r.TauMin {
			r.TauMin = cfg.Time
			r.MAtMin = m
		}
	}
	r.SpreadPct = 100 * float64(r.TauMax-r.TauMin) / float64(r.TauMax)
	r.InteriorMin = r.MAtMin != r.Ms[len(r.Ms)-1] && r.MAtMin != r.Ms[0]
	return r, nil
}

// Render draws the figure and its summary statistics.
func (r *Fig2Result) Render(w io.Writer) error {
	title := fmt.Sprintf("Figure 2: test time vs wrapper chains, %s, TAM width %d", r.CoreName, r.W)
	if err := report.Series(w, title, r.Ms, r.Times, 64, 12); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"tau_max = %d, tau_min = %d at m = %d; (tau_max - tau_min)/tau_max = %.1f%% (paper: 31%%)\n"+
			"minimum interior to the band: %v (paper: m = 253 of [128,255])\n",
		r.TauMax, r.TauMin, r.MAtMin, r.SpreadPct, r.InteriorMin)
	return err
}

// Fig3Result is the best-per-TAM-width sweep of Figure 3.
type Fig3Result struct {
	CoreName string
	Ws       []int
	Times    []int64 // best test time at each width
	Volumes  []int64 // compressed volume of that configuration
	BestMs   []int   // m achieving it
	// TimeNonMonotonic reports whether some wider TAM is slower than a
	// narrower one (the paper's w=11 < w=12,13 observation); with our
	// synthetic stand-in cores the time curve plateaus instead, but the
	// *volume* of the best configuration does invert. Both are recorded.
	TimeNonMonotonic bool
	VolNonMonotonic  bool
}

// Fig3 finds, for each TAM width w, the best m in w's band for ckt-7,
// using the same banded exploration the optimizer's lookup tables use.
func (e *Env) Fig3() (*Fig3Result, error) {
	defer e.begin("fig3").End()
	c, err := soc.IndustrialCore("ckt-7")
	if err != nil {
		return nil, err
	}
	tab, err := e.cache().GetInstrumentedContext(e.Ctx, c,
		core.TableOptions{MaxWidth: tableWidth, Workers: e.Workers, EvalWindow: e.EvalWindow}, e.Sink)
	if err != nil {
		return nil, err
	}
	r := &Fig3Result{CoreName: c.Name}
	for w := 4; w <= tableWidth; w++ {
		cfg := tab.TDCExact[w]
		if !cfg.Feasible {
			continue
		}
		r.Ws = append(r.Ws, w)
		r.Times = append(r.Times, cfg.Time)
		r.Volumes = append(r.Volumes, cfg.Volume)
		r.BestMs = append(r.BestMs, cfg.M)
	}
	for i := 1; i < len(r.Times); i++ {
		if r.Times[i] > r.Times[i-1] {
			r.TimeNonMonotonic = true
		}
		if r.Volumes[i] > r.Volumes[i-1] {
			r.VolNonMonotonic = true
		}
	}
	return r, nil
}

// Render draws the figure.
func (r *Fig3Result) Render(w io.Writer) error {
	title := fmt.Sprintf("Figure 3: lowest test time vs TAM width, %s", r.CoreName)
	if err := report.Series(w, title, r.Ws, r.Times, 40, 12); err != nil {
		return err
	}
	tab := report.NewTable("", "TAM width w", "best m", "test time", "volume (bits)")
	for i := range r.Ws {
		tab.Add(fmt.Sprint(r.Ws[i]), fmt.Sprint(r.BestMs[i]),
			fmt.Sprint(r.Times[i]), fmt.Sprint(r.Volumes[i]))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"non-monotonic in TAM width: time %v, volume %v\n"+
			"(paper: tau(11) < tau(12), tau(13); see EXPERIMENTS.md for the deviation discussion)\n",
		r.TimeNonMonotonic, r.VolNonMonotonic)
	return err
}

// Fig4Result compares the three architecture styles on the paper's
// three-core industrial design at W_TAM = 31.
type Fig4Result struct {
	WTAM    int
	Results [3]*core.Result // indexed by styleOrder
}

// styleOrder fixes the presentation order: (a) no TDC, (b) per TAM,
// (c) per core.
var styleOrder = [3]core.Style{core.StyleNoTDC, core.StyleTDCPerTAM, core.StyleTDCPerCore}

// Fig4 optimizes the Figure 4 SOC under each architecture style.
func (e *Env) Fig4() (*Fig4Result, error) {
	defer e.begin("fig4").End()
	s := soc.Figure4SOC()
	r := &Fig4Result{WTAM: 31}
	for i, style := range styleOrder {
		res, err := e.optimize(s, r.WTAM, core.Options{Style: style,
			Tables: core.TableOptions{MaxWidth: tableWidth}})
		if err != nil {
			return nil, err
		}
		r.Results[i] = res
	}
	return r, nil
}

// Render prints the three architectures side by side.
func (r *Fig4Result) Render(w io.Writer) error {
	tab := report.NewTable(
		fmt.Sprintf("Figure 4: architecture styles on {ckt-1, ckt-11, ckt-9}, W_TAM = %d", r.WTAM),
		"style", "TAM partition", "test time", "volume (bits)", "internal wires", "decompressors")
	for _, res := range r.Results {
		tab.Add(res.Style.String(),
			fmt.Sprint(res.Partition),
			fmt.Sprint(res.TestTime),
			fmt.Sprint(res.Volume),
			fmt.Sprint(res.InternalWires),
			fmt.Sprint(res.Decompressors))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	a, b, c := r.Results[0], r.Results[1], r.Results[2]
	// In the per-TAM style the expanded (m-wide) buses are routed across
	// the SOC to reach the cores; in the per-core style only the w-wide
	// TAM is routed and the m-wide fan-out stays local to each wrapper.
	_, err := fmt.Fprintf(w,
		"TDC speedup vs no-TDC: per-TAM %s, per-core %s\n"+
			"chip-level routed wires: per-TAM %d (expanded buses) vs per-core %d (TAM only)\n"+
			"(paper: tau(b) == tau(c) << tau(a); per-core style needs far narrower on-chip buses)\n",
		report.Ratio(a.TestTime, b.TestTime), report.Ratio(a.TestTime, c.TestTime),
		b.InternalWires, c.Partition.TotalWidth())
	return err
}
