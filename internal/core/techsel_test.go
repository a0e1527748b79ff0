package core

import (
	"context"
	"testing"

	"soctap/internal/soc"
)

func TestEvalDictBasics(t *testing.T) {
	c := compressibleCore(21)
	cfg, err := EvalDict(c, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Feasible || !cfg.UseTDC || cfg.Codec != CodecDict {
		t.Fatalf("metadata wrong: %+v", cfg)
	}
	if cfg.Width != 1+4 { // 1 flag bit + ceil(log2 16)
		t.Errorf("Width = %d, want 5", cfg.Width)
	}
	if cfg.M != 32 || cfg.Time <= 0 || cfg.Volume <= 0 {
		t.Errorf("degenerate config %+v", cfg)
	}
	if _, err := EvalDict(c, 0, 16); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := EvalDict(c, 8, 0); err == nil {
		t.Error("dictWords=0 accepted")
	}
}

func TestEvalDictVolumeIncludesDownload(t *testing.T) {
	// A larger dictionary must charge a larger one-time download, so at
	// equal hit behaviour the volume difference is at least the SRAM
	// delta. Use a tiny core where the dictionary is far from full.
	c := &soc.Core{
		Name: "tinydict", Inputs: 4, Outputs: 4, ScanChains: []int{8, 8},
		Patterns: 4, CareDensity: 0.2, Seed: 9,
	}
	small, err := EvalDict(c, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.Volume <= 0 {
		t.Fatal("degenerate volume")
	}
}

func TestSelectTechniquesJoinsTables(t *testing.T) {
	c := compressibleCore(22)
	sel, err := SelectTechniques(c, TableOptions{MaxWidth: 16}, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := BuildTableContext(context.Background(), c, TableOptions{MaxWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 16; u++ {
		win := sel.PerWidth[u]
		if !win.Feasible {
			t.Fatalf("width %d: no winner", u)
		}
		// The winner is never worse than the selenc/direct table alone.
		if tab.Best[u].better(win) {
			t.Errorf("width %d: selection (%d) worse than base table (%d)",
				u, win.Time, tab.Best[u].Time)
		}
		// And never worse than the dictionary alone.
		if sel.DictBest[u].better(win) {
			t.Errorf("width %d: selection worse than dictionary", u)
		}
		// Dictionary configurations respect the width budget.
		if d := sel.DictBest[u]; d.Feasible && d.Width > u {
			t.Errorf("width %d: dict config uses %d wires", u, d.Width)
		}
	}
}

func TestSelectTechniquesDictionaryWinsOnRepetitiveCore(t *testing.T) {
	// A core whose patterns repeat the same few slice signatures is the
	// dictionary codec's home turf: after training, almost every slice
	// is a hit, beating selective encoding's per-target codewords.
	chains := make([]int, 16)
	for i := range chains {
		chains[i] = 20
	}
	base := &soc.Core{
		Name: "repetitive", Inputs: 8, Outputs: 8,
		ScanChains: chains, Patterns: 30,
		CareDensity: 0.5, Clustering: 0.1, Seed: 77,
	}
	// Make the test set literally repetitive: 30 copies of 3 distinct
	// dense cubes.
	ts, err := base.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(ts.Cubes); i++ {
		ts.Cubes[i] = ts.Cubes[i%3].Clone()
	}

	sel, err := SelectTechniques(base, TableOptions{MaxWidth: 16}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	dictWins := false
	for u := 6; u <= 16; u++ {
		if sel.PerWidth[u].Codec == CodecDict {
			dictWins = true
		}
	}
	if !dictWins {
		t.Error("dictionary never selected on a repetitive dense core")
	}
}

func TestSelectTechniquesValidation(t *testing.T) {
	c := compressibleCore(23)
	if _, err := SelectTechniques(c, TableOptions{MaxWidth: 8}, []int{0}); err == nil {
		t.Error("dictionary size 0 accepted")
	}
}

func TestOptimizeWithDictNeverWorse(t *testing.T) {
	s := testSOC()
	var cache Cache
	topts := TableOptions{MaxWidth: 16}
	plain, err := Optimize(s, 16, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache})
	if err != nil {
		t.Fatal(err)
	}
	withDict, err := Optimize(s, 16, Options{
		Style: StyleTDCPerCore, Tables: topts, Cache: &cache,
		EnableDict: true, DictSizes: []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withDict.TestTime > plain.TestTime {
		t.Errorf("technique selection made things worse: %d vs %d",
			withDict.TestTime, plain.TestTime)
	}
	if err := withDict.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	// Choices carry consistent codec metadata.
	for _, ch := range withDict.Choices {
		switch ch.Config.Codec {
		case CodecDirect:
			if ch.Config.UseTDC {
				t.Errorf("%s: direct codec but UseTDC", ch.Core)
			}
		case CodecSelEnc, CodecDict:
			if !ch.Config.UseTDC {
				t.Errorf("%s: codec %q but UseTDC false", ch.Core, ch.Config.Codec)
			}
		default:
			t.Errorf("%s: unknown codec %q", ch.Core, ch.Config.Codec)
		}
		if ch.Config.Codec == CodecDict && ch.Config.DictWords < 1 {
			t.Errorf("%s: dict config without capacity", ch.Core)
		}
	}
}
