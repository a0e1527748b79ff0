package sim

import (
	"testing"

	"soctap/internal/core"
	"soctap/internal/soc"
)

func simCore(seed int64) *soc.Core {
	chains := make([]int, 20)
	for i := range chains {
		chains[i] = 15
	}
	return &soc.Core{
		Name: "simcore", Inputs: 10, Outputs: 8,
		ScanChains: chains, Patterns: 12,
		CareDensity: 0.08, Clustering: 0.7, Seed: seed,
	}
}

func TestRunTDCCoreDeliversStimulus(t *testing.T) {
	c := simCore(1)
	for _, m := range []int{1, 3, 7, 20, c.MaxWrapperChains()} {
		rep, err := RunTDCCore(c, m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("m=%d: %d stimulus mismatches", m, rep.Mismatches)
		}
		if rep.Patterns != 12 {
			t.Errorf("m=%d: %d patterns", m, rep.Patterns)
		}
		if rep.Slices%int64(rep.Patterns) != 0 {
			t.Errorf("m=%d: slices %d not a multiple of patterns", m, rep.Slices)
		}
		if rep.Codewords < rep.Slices {
			t.Errorf("m=%d: fewer codewords (%d) than slices (%d)", m, rep.Codewords, rep.Slices)
		}
		if rep.VolumeBits != rep.Codewords*int64(rep.W) {
			t.Errorf("m=%d: volume accounting wrong", m)
		}
	}
}

func TestSimMatchesAnalyticVolume(t *testing.T) {
	// The analytic cost model and the bit-level simulation must agree
	// exactly on the compressed volume.
	c := simCore(2)
	ev, err := core.NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 5, 11, 25} {
		cfg, err := ev.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunTDCCore(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if rep.VolumeBits != cfg.Volume {
			t.Errorf("m=%d: simulated %d != analytic %d", m, rep.VolumeBits, cfg.Volume)
		}
	}
}

func TestVerifyConfig(t *testing.T) {
	c := simCore(3)
	ev, err := core.NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ev.TDC(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConfig(c, cfg); err != nil {
		t.Errorf("valid config failed verification: %v", err)
	}
	// Tampered volume must be caught.
	bad := cfg
	bad.Volume++
	if err := VerifyConfig(c, bad); err == nil {
		t.Error("tampered volume passed verification")
	}
	// Direct-access configs pass trivially.
	direct, _ := ev.NoTDC(4)
	if err := VerifyConfig(c, direct); err != nil {
		t.Errorf("direct config failed: %v", err)
	}
}

func TestVerifyPlanEndToEnd(t *testing.T) {
	s := &soc.SOC{Name: "simsoc", Cores: []*soc.Core{simCore(4), simCore(5), simCore(6)}}
	// Names must be unique.
	s.Cores[1].Name = "simcore2"
	s.Cores[2].Name = "simcore3"
	res, err := core.Optimize(s, 12, core.Options{
		Style:  core.StyleTDCPerCore,
		Tables: core.TableOptions{MaxWidth: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(res); err != nil {
		t.Errorf("optimized plan failed simulation: %v", err)
	}
}

func TestVerifyPlanCatchesUnknownCore(t *testing.T) {
	s := &soc.SOC{Name: "simsoc", Cores: []*soc.Core{simCore(7)}}
	res, err := core.Optimize(s, 8, core.Options{
		Style:  core.StyleTDCPerCore,
		Tables: core.TableOptions{MaxWidth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Choices[0].Core = "nonexistent"
	if err := VerifyPlan(res); err == nil {
		t.Error("plan with unknown core verified")
	}
}

func TestRunTDCCoreErrors(t *testing.T) {
	c := simCore(8)
	if _, err := RunTDCCore(c, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := RunTDCCore(c, c.MaxWrapperChains()+1); err == nil {
		t.Error("m beyond maximum accepted")
	}
}

func TestVerifyPlanAllStyles(t *testing.T) {
	s := &soc.SOC{Name: "stylesoc", Cores: []*soc.Core{simCore(41), simCore(42), simCore(43)}}
	s.Cores[1].Name = "sc2"
	s.Cores[2].Name = "sc3"
	for _, style := range []core.Style{core.StyleNoTDC, core.StyleTDCPerTAM, core.StyleTDCPerCore} {
		res, err := core.Optimize(s, 12, core.Options{
			Style:  style,
			Tables: core.TableOptions{MaxWidth: 12},
		})
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if err := VerifyPlan(res); err != nil {
			t.Errorf("style %v failed verification: %v", style, err)
		}
	}
}

func TestVerifyPlanWithDict(t *testing.T) {
	s := &soc.SOC{Name: "dictsoc", Cores: []*soc.Core{simCore(44), simCore(45)}}
	s.Cores[1].Name = "sc2"
	res, err := core.Optimize(s, 12, core.Options{
		Style:      core.StyleTDCPerCore,
		Tables:     core.TableOptions{MaxWidth: 12},
		EnableDict: true, DictSizes: []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(res); err != nil {
		t.Errorf("dict-enabled plan failed verification: %v", err)
	}
}
