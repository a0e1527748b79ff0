package core

import (
	"context"
	"reflect"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// trimmedCore copies a core's public description with a reduced pattern
// count, so the streaming-equivalence matrix over the industrial cores
// stays tractable under -race while still spanning several windows at
// DefaultEvalWindow. (A fresh struct, not a shallow copy: Core embeds a
// sync.Once.)
func trimmedCore(c *soc.Core, patterns int) *soc.Core {
	out := &soc.Core{
		Name: c.Name, Inputs: c.Inputs, Outputs: c.Outputs, Bidirs: c.Bidirs,
		ScanChains: append([]int(nil), c.ScanChains...),
		Patterns:   c.Patterns, Gates: c.Gates,
		CareDensity: c.CareDensity, Clustering: c.Clustering,
		DensityDecay: c.DensityDecay, Seed: c.Seed,
	}
	if patterns > 0 && patterns < out.Patterns {
		out.Patterns = patterns
	}
	return out
}

// decayCore has a strongly decaying density profile: at small windows
// the head windows carry many times the care bits of the tail windows,
// so the kernel's counters and key buffer see both extremes within one
// pass, across window boundaries.
func decayCore(seed int64) *soc.Core {
	return &soc.Core{
		Name: "decay", Inputs: 10, Outputs: 8,
		ScanChains: []int{40, 35, 30, 25, 20},
		Patterns:   90, CareDensity: 0.16, Clustering: 0.4, DensityDecay: 1,
		Seed: seed,
	}
}

// TestStreamingEvaluatorEquivalence compares the evaluator primitives
// (TDC with and without group copy, PatternBits) streamed against the
// whole-set window at every window, including windows that split the
// set unevenly (patterns not a multiple of the window).
func TestStreamingEvaluatorEquivalence(t *testing.T) {
	for _, c := range []*soc.Core{smallCore(3), compressibleCore(5), decayCore(11)} {
		resident, err := NewEvaluatorWindow(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resident.window != resident.patterns {
			t.Fatalf("%s: auto mode streamed a small core", c.Name)
		}
		for _, window := range []int{1, 7, DefaultEvalWindow} {
			ev, err := NewEvaluatorWindow(c, window)
			if err != nil {
				t.Fatal(err)
			}
			if window < c.Patterns && ev.window >= ev.patterns {
				t.Fatalf("%s window=%d: expected a streaming evaluator", c.Name, window)
			}
			for _, m := range []int{2, 5, 9} {
				for _, gc := range []bool{true, false} {
					want, err := resident.TDC(m, gc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ev.TDC(m, gc)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s window=%d m=%d gc=%v: streamed %+v, resident %+v",
							c.Name, window, m, gc, got, want)
					}
				}
				wantBits, err := resident.PatternBits(m)
				if err != nil {
					t.Fatal(err)
				}
				gotBits, err := ev.PatternBits(m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotBits, wantBits) {
					t.Errorf("%s window=%d m=%d: streamed PatternBits differ", c.Name, window, m)
				}
			}
		}
	}
}

// TestEvalWindowValidation covers the window-resolution edges: every
// negative window is rejected (by the evaluator and by BuildTableContext),
// automatic residency keeps a small core in one whole-set window, and
// windows at or above the set clamp to it.
func TestEvalWindowValidation(t *testing.T) {
	c := smallCore(1)
	for _, window := range []int{-1, -2} {
		if _, err := NewEvaluatorWindow(c, window); err == nil {
			t.Errorf("EvalWindow %d accepted", window)
		}
		if _, err := BuildTableContext(context.Background(), c, TableOptions{MaxWidth: 4, EvalWindow: window}); err == nil {
			t.Errorf("BuildTableContext accepted EvalWindow %d", window)
		}
	}
	for _, window := range []int{0, c.Patterns, 10_000} {
		ev, err := NewEvaluatorWindow(c, window)
		if err != nil {
			t.Fatal(err)
		}
		if ev.window != c.Patterns {
			t.Errorf("EvalWindow %d: window = %d, want the whole set (%d)", window, ev.window, c.Patterns)
		}
	}
}

// TestStreamingWindowTelemetry asserts the deterministic window
// counters: every pass of a streamed evaluation loads ceil(p/window)
// windows covering exactly p cubes, and every pass over a kept
// whole-set window counts one load of p cubes.
func TestStreamingWindowTelemetry(t *testing.T) {
	c := smallCore(9) // 20 patterns
	for _, tc := range []struct{ window, loads int64 }{{7, 3}, {0, 1}} {
		tel := telemetry.New()
		ev, err := NewEvaluatorWindow(c, int(tc.window))
		if err != nil {
			t.Fatal(err)
		}
		ev.attachTelemetry(tel)
		for _, m := range []int{4, 6} {
			if _, err := ev.TDC(m, true); err != nil {
				t.Fatal(err)
			}
		}
		sn := tel.Snapshot()
		if got := sn.Counters["eval.window_loads"]; got != 2*tc.loads {
			t.Errorf("window=%d: window_loads = %d over two passes, want %d", tc.window, got, 2*tc.loads)
		}
		if got := sn.Counters["eval.window_cubes"]; got != 40 {
			t.Errorf("window=%d: window_cubes = %d over two passes, want 40", tc.window, got)
		}
	}
}

// FuzzStreamingWindowEquivalence fuzzes the window axis against the
// whole-set window on a small synthetic core: any (seed, patterns,
// density, window, m) combination must price identically however the
// set is split into windows. Seeds pin the interesting boundaries —
// window 1, window == patterns, patterns one off a window multiple.
func FuzzStreamingWindowEquivalence(f *testing.F) {
	f.Add(int64(1), 20, 0.15, 1, 4)
	f.Add(int64(2), 65, 0.05, 64, 6) // one cube past a window boundary
	f.Add(int64(3), 64, 0.30, 64, 3) // exactly one full window
	f.Add(int64(4), 63, 0.20, 64, 5) // one cube short of a window
	f.Add(int64(5), 33, 0.16, 16, 2) // decaying head and tail in separate windows
	f.Add(int64(6), 10, 0.90, 3, 7)  // saturated cubes
	f.Fuzz(func(t *testing.T, seed int64, patterns int, density float64, window, m int) {
		if patterns < 1 || patterns > 120 {
			return
		}
		if !(density > 0 && density <= 1) {
			return
		}
		if window < 1 || window > 200 {
			return
		}
		if m < 1 || m > 20 {
			return
		}
		c := &soc.Core{
			Name: "fuzz", Inputs: 8, Outputs: 6,
			ScanChains: []int{30, 25, 20, 15},
			Patterns:   patterns, CareDensity: density,
			Clustering: 0.5, DensityDecay: 1, Seed: seed,
		}
		resident, err := NewEvaluatorWindow(c, 0)
		if err != nil {
			t.Skip()
		}
		streamed, err := NewEvaluatorWindow(c, window)
		if err != nil {
			t.Fatal(err)
		}
		want, err := resident.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamed.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("window=%d: streamed %+v != resident %+v", window, got, want)
		}
	})
}
