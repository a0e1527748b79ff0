package experiments

// These tests regenerate every paper artifact and assert the *shape*
// claims the reproduction targets (see DESIGN.md §4 and EXPERIMENTS.md).
// They are the repository's executable record of paper-vs-measured.
// The heavyweight Table 3 run is skipped under -short.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// testEnv is shared by the tests so that they reuse each other's
// lookup tables, as the experiments of one repro run do.
var testEnv = &Env{}

// TestCatalog: the catalog names every experiment exactly once, every
// name dispatches, and an unknown name is an error.
func TestCatalog(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("%q listed twice", n)
		}
		seen[n] = true
	}
	want := "fig2 fig3 fig4 tab1 tab2 tab3 ablations techsel seeds verify"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("Names() = %s, want %s", got, want)
	}
	if _, err := (&Env{}).Run("fig9"); err == nil {
		t.Error("Run accepted an unknown name")
	}
	// Every name dispatches: under a cancelled context each experiment
	// that reaches the engine stops with ctx.Err(), so none is unknown.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := &Env{Ctx: ctx}
	for _, n := range names {
		if _, err := env.Run(n); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("Run(%q) under a cancelled context: %v", n, err)
		}
	}
}

func TestFig2ShapeClaims(t *testing.T) {
	r, err := testEnv.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 10 || r.Ms[0] != 128 || r.Ms[len(r.Ms)-1] != 255 {
		t.Fatalf("wrong sweep range: w=%d m=[%d,%d]", r.W, r.Ms[0], r.Ms[len(r.Ms)-1])
	}
	// Core claim 1: test time does not decrease monotonically with m.
	if !r.InteriorMin {
		t.Errorf("minimum at band edge (m=%d); paper's headline is an interior minimum", r.MAtMin)
	}
	// Core claim 2: the max-min spread is substantial (paper: 31%).
	if r.SpreadPct < 10 || r.SpreadPct > 60 {
		t.Errorf("spread %.1f%% outside the paper's regime (31%%)", r.SpreadPct)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFig3ShapeClaims(t *testing.T) {
	r, err := testEnv.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ws) < 6 {
		t.Fatalf("only %d widths", len(r.Ws))
	}
	// Test time must fall steeply from narrow widths then flatten: the
	// last two widths must be within 5% of each other while the first
	// halving is large.
	n := len(r.Times)
	if r.Times[0] < 4*r.Times[n-1] {
		t.Errorf("no steep initial decline: %d -> %d", r.Times[0], r.Times[n-1])
	}
	last, prev := float64(r.Times[n-1]), float64(r.Times[n-2])
	if last < prev*0.95 {
		t.Errorf("no plateau at wide TAMs: %v", r.Times)
	}
	// The best-configuration volume inverts at wide TAMs — the trade-off
	// behind the paper's Figure 3 observation.
	if !r.VolNonMonotonic {
		t.Error("volume monotone; expected inversion at wide TAMs")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig4ShapeClaims(t *testing.T) {
	r, err := testEnv.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := r.Results[0], r.Results[1], r.Results[2]
	// tau(b) and tau(c) are equal (same codec, same buses) and both far
	// below tau(a).
	if b.TestTime != c.TestTime {
		t.Errorf("per-TAM %d != per-core %d (paper: identical)", b.TestTime, c.TestTime)
	}
	if a.TestTime < 4*c.TestTime {
		t.Errorf("TDC speedup too small: %d vs %d", a.TestTime, c.TestTime)
	}
	// The wiring claim: per-TAM routes expanded buses far wider than the
	// TAM; the per-core style routes only W_TAM across the chip.
	if b.InternalWires <= 2*r.WTAM {
		t.Errorf("per-TAM internal wires %d not substantially wider than TAM %d", b.InternalWires, r.WTAM)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTab1ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("table experiments are heavyweight")
	}
	r, err := testEnv.Tab1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.TimeOurs <= 0 || row.Time18 <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		// Paper's observation: at an ATE-channel constraint [18] holds
		// its own (its internal TAM wires are free), so our ratio is
		// above 1 but bounded.
		if row.Ratio18 < 1 || row.Ratio18 > 6 {
			t.Errorf("%s W=%d: ours/[18] = %.2f outside expected band",
				row.Design, row.WATE, row.Ratio18)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTab2ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("table experiments are heavyweight")
	}
	r, err := testEnv.Tab2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Paper: better than [18] at a wire constraint.
		if row.Ratio18 >= 1 {
			t.Errorf("W=%d: not better than [18]: %.2f", row.WTAM, row.Ratio18)
		}
		// Same broad range as [13] (d695's density caps everyone).
		if row.Ratio13 > 3 {
			t.Errorf("W=%d: far worse than [13]: %.2f", row.WTAM, row.Ratio13)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTab3ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("table experiments are heavyweight")
	}
	r, err := testEnv.Tab3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5*len(Tab3Widths) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Headline claims: order-of-magnitude reductions on industrial
	// systems (paper: 15.39x time, 15.80x volume), smaller on the dense
	// d695, industrial average above the overall average.
	if r.AvgTimeRatioInd < 8 || r.AvgTimeRatioInd > 25 {
		t.Errorf("industrial time reduction %.2fx outside the paper's regime", r.AvgTimeRatioInd)
	}
	if r.AvgVolRatioInd < 8 || r.AvgVolRatioInd > 25 {
		t.Errorf("industrial volume reduction %.2fx outside the paper's regime", r.AvgVolRatioInd)
	}
	if r.AvgTimeRatioInd <= r.AvgTimeRatio-1e-9 {
		t.Error("industrial average below overall average")
	}
	for _, row := range r.Rows {
		// TDC must never lose: the optimizer can always fall back.
		if row.TimeTDC > row.TimeNoTDC {
			t.Errorf("%s W=%d: TDC slower than no-TDC", row.Design, row.WTAM)
		}
		if row.Industrial && row.TimeRatio < 3 {
			t.Errorf("%s W=%d: industrial reduction only %.2fx", row.Design, row.WTAM, row.TimeRatio)
		}
		// CPU time claim: under a minute per optimization.
		if row.CPUNoTDC > 60 || row.CPUTDC > 60 {
			t.Errorf("%s W=%d: CPU time above a minute", row.Design, row.WTAM)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "average time reduction") {
		t.Error("render missing averages")
	}
}
