package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"soctap/internal/cube"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

func smallCore(seed int64) *soc.Core {
	return &soc.Core{
		Name: "small", Inputs: 12, Outputs: 9, Bidirs: 1,
		ScanChains: []int{30, 25, 20, 15},
		Patterns:   20, CareDensity: 0.15, Clustering: 0.5, DensityDecay: 0.5,
		Seed: seed,
	}
}

// referenceTDC computes test time and volume by actually encoding every
// slice with the real selective-encoding encoder — the ground truth the
// fast cost model in tdcCost must match bit-for-bit. With group copy
// off, the codec's ablation sends every target bit (a care bit whose
// value differs from the slice's fill, selenc.ChooseFill) as its own
// single-bit codeword after the slice header.
func referenceTDC(t *testing.T, c *soc.Core, m int, groupCopy bool) (int64, int64) {
	t.Helper()
	time, volume, err := referenceCost(c, m, groupCopy)
	if err != nil {
		t.Fatal(err)
	}
	return time, volume
}

func referenceCost(c *soc.Core, m int, groupCopy bool) (time, volume int64, err error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return 0, 0, err
	}
	ts, err := c.TestSet()
	if err != nil {
		return 0, 0, err
	}
	refs := d.StimulusMap()
	w := selenc.CodewordWidth(m)
	so := int64(d.ScanOut)

	var totalCW int64
	for j, cb := range ts.Cubes {
		slices := make([][]selenc.CareBit, d.ScanIn)
		for _, bit := range cb.Care {
			r := refs[bit.Pos]
			slices[r.Depth] = append(slices[r.Depth], selenc.CareBit{Pos: int(r.Chain), Value: bit.Value})
		}
		var cw int64
		for _, slice := range slices {
			if !groupCopy {
				cw++ // header
				fill := selenc.ChooseFill(slice)
				for _, b := range slice {
					if b.Value != fill {
						cw++
					}
				}
				continue
			}
			// EncodeSlice requires sorted care lists.
			sortCare(slice)
			cw += int64(len(selenc.EncodeSlice(m, slice)))
		}
		totalCW += cw
		if j == 0 {
			time += cw
		} else if cw > so {
			time += cw
		} else {
			time += so
		}
	}
	time += int64(ts.Len()) + so
	return time, totalCW * int64(w), nil
}

func sortCare(care []selenc.CareBit) {
	for i := 1; i < len(care); i++ {
		for j := i; j > 0 && care[j-1].Pos > care[j].Pos; j-- {
			care[j-1], care[j] = care[j], care[j-1]
		}
	}
}

// evalTDC prices one compressed configuration with a fresh evaluator.
func evalTDC(c *soc.Core, m int, groupCopy bool) (Config, error) {
	ev, err := NewEvaluator(c)
	if err != nil {
		return Config{}, err
	}
	return ev.TDC(m, groupCopy)
}

func TestEvalTDCMatchesRealEncoder(t *testing.T) {
	c := smallCore(11)
	for _, m := range []int{1, 2, 3, 5, 8, 13, c.MaxWrapperChains()} {
		got, err := evalTDC(c, m, true)
		if err != nil {
			t.Fatal(err)
		}
		wantTime, wantVol := referenceTDC(t, c, m, true)
		if got.Time != wantTime || got.Volume != wantVol {
			t.Errorf("m=%d: cost model (τ=%d, V=%d) != encoder (τ=%d, V=%d)",
				m, got.Time, got.Volume, wantTime, wantVol)
		}
		if got.Width != selenc.CodewordWidth(m) || got.M != m || !got.UseTDC || !got.Feasible {
			t.Errorf("m=%d: config metadata wrong: %+v", m, got)
		}
	}
}

// Property: the cost model matches the encoder on random cores.
func TestQuickCostModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nChains := rng.Intn(5)
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = rng.Intn(30) + 1
		}
		c := &soc.Core{
			Name: "q", Inputs: rng.Intn(15) + 1, Outputs: rng.Intn(15),
			ScanChains: chains, Patterns: rng.Intn(10) + 1,
			CareDensity: 0.05 + rng.Float64()*0.6, Clustering: rng.Float64(),
			Seed: seed,
		}
		m := rng.Intn(c.MaxWrapperChains()) + 1
		got, err := evalTDC(c, m, true)
		if err != nil {
			return false
		}
		wantTime, wantVol, err := referenceCost(c, m, true)
		return err == nil && got.Time == wantTime && got.Volume == wantVol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEvalTDCLargeCubeMatchesRealEncoder covers big-cube inputs on
// wide designs: thousands of care bits per pattern must still match
// the real encoder exactly.
func TestEvalTDCLargeCubeMatchesRealEncoder(t *testing.T) {
	chains := make([]int, 24)
	for i := range chains {
		chains[i] = 120
	}
	c := &soc.Core{
		Name: "bigcube", Inputs: 30, Outputs: 30,
		ScanChains: chains, // 2880 cells
		Patterns:   6, CareDensity: 0.25, Clustering: 0.4, Seed: 17,
	}
	for _, m := range []int{5, 24, 40} {
		got, err := evalTDC(c, m, true)
		if err != nil {
			t.Fatal(err)
		}
		wantTime, wantVol := referenceTDC(t, c, m, true)
		if got.Time != wantTime || got.Volume != wantVol {
			t.Errorf("m=%d: cost model (τ=%d, V=%d) != encoder (τ=%d, V=%d)",
				m, got.Time, got.Volume, wantTime, wantVol)
		}
	}
}

// loadWholeSet returns an evaluator with its whole-set window loaded.
// The window stays loaded, so every later pass prices against it
// without replaying the source.
func loadWholeSet(t *testing.T, c *soc.Core) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	ev.beginPass()
	if !ev.nextWindow() || ev.win.count != ev.patterns {
		t.Fatalf("%s: expected one whole-set window", c.Name)
	}
	return ev
}

// TestKernelMatchesEncoder pins the slice-cost kernel against the real
// encoder on cores of every shape the sweep meets: a small decaying
// core; a dense (care density 0.55) and a thin (0.02) one; a
// combinational core with no scan chains; the d695 core s38584; a wide
// core with more than 200 wrapper chains, whose m axis covers a single
// chain holding every stimulus bit (one group per slice), payload
// widths that leave a partial last group, and slice rows of one and of
// several 64-bit words; and hand-built cubes with the fill edge cases —
// a tie row (fill 0), an all-X cube, a fully specified cube, and a
// group with more than two targets. Both group-copy settings are
// checked; with group copy off the reference counts target bits per
// slice.
func TestKernelMatchesEncoder(t *testing.T) {
	chains := make([]int, 160)
	for i := range chains {
		chains[i] = 6 + i%9
	}
	wide := &soc.Core{
		Name: "wide", Inputs: 52, Outputs: 40, Bidirs: 8, ScanChains: chains,
		Patterns: 24, CareDensity: 0.06, Clustering: 0.7, DensityDecay: 0.6, Seed: 19,
	}
	if wide.MaxWrapperChains() <= 200 {
		t.Fatalf("wide core has only %d wrapper chains", wide.MaxWrapperChains())
	}
	edges := []int{1, 2, 3, 7, 63, 64, 65, 127, 128, 129}
	small := []int{1, 3, 17}
	cases := []struct {
		c  *soc.Core
		ms []int // plus MaxWrapperChains
	}{
		{smallCore(7), small},
		{&soc.Core{Name: "dense", Inputs: 20, Outputs: 10, ScanChains: []int{70, 40, 40, 10},
			Patterns: 15, CareDensity: 0.55, Clustering: 0.3, Seed: 9}, small},
		{&soc.Core{Name: "thin", Inputs: 8, Outputs: 8, ScanChains: []int{90, 90, 90, 90, 90, 90},
			Patterns: 12, CareDensity: 0.02, Clustering: 0.8, Seed: 31}, small},
		{&soc.Core{Name: "comb", Inputs: 130, Outputs: 5, Patterns: 9,
			CareDensity: 0.4, Seed: 12}, small},
		{soc.D695().CoreByName("s38584"), []int{1, 3, 17, 32}},
		{wide, edges},
		{edgeCubeCore(t), edges},
	}
	for _, tc := range cases {
		c := tc.c
		ev := loadWholeSet(t, c)
		for _, m := range append(tc.ms, c.MaxWrapperChains()) {
			if m > c.MaxWrapperChains() {
				continue
			}
			d, err := ev.Design(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, gc := range []bool{true, false} {
				gotTime, gotVol := ev.tdcCost(d, gc)
				wantTime, wantVol := referenceTDC(t, c, m, gc)
				if gotTime != wantTime || gotVol != wantVol {
					t.Errorf("%s m=%d gc=%v: kernel (τ=%d, V=%d) != encoder (τ=%d, V=%d)",
						c.Name, m, gc, gotTime, gotVol, wantTime, wantVol)
				}
			}
		}
	}
}

// edgeCubeCore returns a core of eight 4-cell scan chains carrying
// hand-built cubes laid out through its m=8 stimulus map (one scan chain
// per wrapper chain; k=4, so chains 0-3 and 4-7 form the two groups of
// each slice row):
//
//   - cube 0: row 0 is a tie (two ones, two zeros: fill 0, the ones are
//     targets); row 1 has three ones in group 0 against four zeros in
//     group 1 (fill 0, three targets in one group);
//   - cube 1: all-X;
//   - cube 2: every cell specified.
func edgeCubeCore(t *testing.T) *soc.Core {
	t.Helper()
	c := &soc.Core{Name: "edge", Outputs: 4, ScanChains: []int{4, 4, 4, 4, 4, 4, 4, 4}, Patterns: 3}
	d, err := wrapper.New(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	flat := make(map[wrapper.CellRef]int)
	for pos, r := range d.StimulusMap() {
		flat[r] = pos
	}
	set := func(cb *cube.Cube, chain, depth int, v bool) {
		pos, ok := flat[wrapper.CellRef{Chain: int32(chain), Depth: int32(depth)}]
		if !ok {
			t.Fatalf("edge core: no cell at chain %d depth %d", chain, depth)
		}
		cb.Set(pos, v)
	}
	n := c.StimulusBits()
	tie := cube.NewCube(n)
	for ch, v := range []bool{true, true, false, false} {
		set(tie, ch, 0, v)
	}
	for ch := 0; ch < 8; ch++ {
		set(tie, ch, 1, ch < 3)
	}
	full := cube.NewCube(n)
	rng := rand.New(rand.NewSource(4))
	for pos := 0; pos < n; pos++ {
		full.Set(pos, rng.Intn(2) == 1)
	}
	c.ExplicitCubes = &cube.Set{NumBits: n, Cubes: []*cube.Cube{tie, cube.NewCube(n), full}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKernelSteadyStateZeroAlloc is the 0 allocs/op gate for the slice
// kernel: once the scratch is warm, repeated tdcCost calls must not
// allocate, on a small synthetic core and on the d695 core s38584. Run
// by the `make check` kernel-equivalence target.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		c *soc.Core
		m int
	}{{smallCore(77), 9}, {soc.D695().CoreByName("s38584"), 32}} {
		ev := loadWholeSet(t, tc.c)
		d, err := ev.Design(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		ev.tdcCost(d, true) // warm the scratch
		allocs := testing.AllocsPerRun(20, func() {
			ev.tdcCost(d, true)
			ev.tdcCost(d, false)
		})
		if allocs != 0 {
			t.Errorf("%s m=%d: steady-state tdcCost allocates %.1f allocs/op, want 0", tc.c.Name, tc.m, allocs)
		}
	}
}

// TestEvaluatorMatchesOneShotAPI asserts a reused evaluator returns
// exactly what a fresh one-shot evaluator does at every m, and that
// consecutive calls at one m share the wrapper design.
func TestEvaluatorMatchesOneShotAPI(t *testing.T) {
	c := smallCore(23)
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5, 11} {
		fresh, err := NewEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range []bool{true, false} {
			got, err := ev.TDC(m, gc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.TDC(m, gc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("m=%d groupCopy=%v: reused TDC %+v != fresh %+v", m, gc, got, want)
			}
		}
		direct, err := ev.NoTDC(m)
		if err != nil {
			t.Fatal(err)
		}
		wantDirect, err := fresh.NoTDC(m)
		if err != nil {
			t.Fatal(err)
		}
		if direct != wantDirect {
			t.Errorf("m=%d: reused NoTDC mismatch", m)
		}
		bits, err := ev.PatternBits(m)
		if err != nil {
			t.Fatal(err)
		}
		wantBits, err := fresh.PatternBits(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bits, wantBits) {
			t.Errorf("m=%d: reused PatternBits mismatch", m)
		}
	}
	d1, err := ev.Design(7)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ev.Design(7)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("Design(7) rebuilt instead of reusing the cached design")
	}
	if _, err := ev.TDC(0, true); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestEvalNoTDC(t *testing.T) {
	c := smallCore(3)
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 4, 10} {
		got, err := ev.NoTDC(m)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := wrapper.New(c, m)
		if got.Time != d.TestTime() || got.Volume != d.StimulusVolume() {
			t.Errorf("m=%d: (%d,%d) want (%d,%d)", m, got.Time, got.Volume, d.TestTime(), d.StimulusVolume())
		}
		if got.UseTDC || !got.Feasible || got.M != m {
			t.Errorf("m=%d: metadata wrong: %+v", m, got)
		}
	}
	if _, err := ev.NoTDC(0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := evalTDC(c, c.MaxWrapperChains()+1, true); err == nil {
		t.Error("m beyond max accepted")
	}
}

func TestConfigBetter(t *testing.T) {
	inf := Config{}
	a := Config{Feasible: true, Time: 10, Volume: 100}
	b := Config{Feasible: true, Time: 10, Volume: 90}
	c := Config{Feasible: true, Time: 9, Volume: 500}
	if inf.better(a) {
		t.Error("infeasible better than feasible")
	}
	if !a.better(inf) {
		t.Error("feasible not better than infeasible")
	}
	if !b.better(a) || a.better(b) {
		t.Error("volume tiebreak wrong")
	}
	if !c.better(b) {
		t.Error("time priority wrong")
	}
}

func TestSparseCoreCompressesWell(t *testing.T) {
	// At 2% care density the compressed volume must be well below the
	// raw stimulus volume for a same-width direct configuration.
	chains := make([]int, 40)
	for i := range chains {
		chains[i] = 50
	}
	c := &soc.Core{
		Name: "sparse", Inputs: 40, Outputs: 40,
		ScanChains: chains, // 2000 cells in short compression-ready chains
		Patterns:   40, CareDensity: 0.02, Clustering: 0.8, Seed: 5,
	}
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	tdc, err := ev.TDC(40, true) // w = 8
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ev.NoTDC(8) // same 8 TAM wires
	if err != nil {
		t.Fatal(err)
	}
	if tdc.Volume*3 > raw.Volume {
		t.Errorf("TDC volume %d not well below direct volume %d", tdc.Volume, raw.Volume)
	}
	if tdc.Time >= raw.Time {
		t.Errorf("TDC time %d not below direct time %d on sparse core", tdc.Time, raw.Time)
	}
}

func TestPatternBitsSumMatchesEvalTDC(t *testing.T) {
	c := smallCore(44)
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 5, 11} {
		per, err := ev.PatternBits(m)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ev.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, b := range per {
			if b <= 0 {
				t.Fatalf("m=%d: non-positive pattern cost", m)
			}
			sum += b
		}
		if sum != cfg.Volume {
			t.Errorf("m=%d: per-pattern sum %d != TDC volume %d", m, sum, cfg.Volume)
		}
	}
	if _, err := ev.PatternBits(0); err == nil {
		t.Error("m=0 accepted")
	}
}
