package main

// giant-stream: one giant-profile design, optimized through the fused
// streaming evaluator (EvalWindow 64, what socopt -eval-window 64 sets)
// at W_TAM 32 from an empty cache, then verified by cycle-accurate
// simulation. These cores are small enough that automatic residency
// would keep them in memory; the explicit window makes this the one
// workload on the cube.Generator/Window streaming path.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"soctap/internal/core"
	"soctap/internal/sim"
	"soctap/internal/soc"
)

const (
	giantCores    = 8
	giantPatterns = 2000
	giantScale    = 0.1
	giantWidth    = 32
	giantWindow   = 64
	// giantShapeSeed fixes the synthesized structure (scan cells,
	// chains, pattern count, care density), so every run seed does the
	// same amount of work; the run seed picks the cubes.
	giantShapeSeed = 1
	// giantCubeSeeds is how many cube seeds have a recorded plan; run
	// seeds fold onto them.
	giantCubeSeeds = 20
)

// giantWarmWidths are the re-plans priced from the tables the cold
// plan left in the cache.
var giantWarmWidths = []int{8, 16, 24, 32, 40, 48, 56, 64}

// giantCubeSeed folds a run seed onto 1..giantCubeSeeds, the cube
// seeds whose plan giantGolden records, so every run is checked
// against a recorded value.
func giantCubeSeed(seed int64) int64 {
	return 1 + ((seed-1)%giantCubeSeeds+giantCubeSeeds)%giantCubeSeeds
}

// giantDesign synthesizes the trimmed giant-profile design for seed:
// the structure of soc.Synthesize's giant profile at giantShapeSeed,
// with every core's cube generator reseeded from the folded seed cs
// the way Synthesize seeds it (cs×1000 + core index).
func giantDesign(seed int64) (*soc.SOC, error) {
	cs := giantCubeSeed(seed)
	s, err := soc.Synthesize(context.Background(), soc.SynthSpec{
		Name: fmt.Sprintf("giant-%d", cs), Profile: "giant", Cores: giantCores,
		Seed: giantShapeSeed, Patterns: giantPatterns, Scale: giantScale,
	})
	if err != nil {
		return nil, err
	}
	for i, c := range s.Cores {
		c.Seed = cs*1000 + int64(i)
	}
	return s, nil
}

func giantOptions(cache *core.Cache) core.Options {
	return core.Options{
		Style:  core.StyleTDCPerCore,
		Tables: core.TableOptions{EvalWindow: giantWindow},
		Cache:  cache,
	}
}

type giant struct{ seed int64 }

func newGiant(seed int64) workload { return &giant{seed: seed} }

// setup times synthesizing the design, which is all a cold pass starts
// from.
func (g *giant) setup(*bench) ([]float64, error) {
	return timeSetup(func() error {
		_, err := giantDesign(g.seed)
		return err
	})
}

func (g *giant) close() {}

// pass synthesizes the design afresh, plans it cold and verifies the
// plan (the pass's wall time), then re-plans it warm at each of
// giantWarmWidths, after a collection. In a traced run every pass
// builds each core's streamed table itself first, so table build,
// search and verify get spans of their own.
func (g *giant) pass(b *bench, tr *tracer, root span) (passOut, error) {
	ctx := context.Background()
	s, err := giantDesign(g.seed)
	if err != nil {
		return passOut{}, err
	}
	out := passOut{warm: map[string]float64{}, cold: map[string]float64{}}
	cache := new(core.Cache)
	start := time.Now()
	if b.traced {
		for _, c := range s.Cores {
			sp := root.child("core.table_stream")
			_, err := cache.GetContext(ctx, c, core.TableOptions{EvalWindow: giantWindow})
			sp.end()
			if err != nil {
				return passOut{}, err
			}
		}
	}
	sp := root.child("search.plan")
	res, err := core.OptimizeContext(ctx, s, giantWidth, giantOptions(cache))
	sp.end()
	if err != nil {
		return passOut{}, fmt.Errorf("giant plan: %w", err)
	}
	out.cold["giant"] = ms(time.Since(start))
	sp = root.child("sim.verify")
	err = sim.VerifyPlan(res)
	sp.end()
	out.wall = time.Since(start).Seconds()
	if err != nil {
		err = fmt.Errorf("%w: giant plan fails simulation: %v", errWrong, err)
	}
	b.record(err)
	b.record(checkGiant(g.seed, res))

	runtime.GC() // as in tab3-cold: warm timings start on a collected heap
	for _, w := range giantWarmWidths {
		sp := root.child("search.plan")
		lat, err := timeRepeats(warmRepeats, func() error {
			wres, err := core.OptimizeContext(ctx, s, w, giantOptions(cache))
			if err == nil && w == giantWidth && (wres.TestTime != res.TestTime || wres.Volume != res.Volume) {
				err = wrongf("warm re-plan at %d: time %d volume %d, cold plan %d %d", w, wres.TestTime, wres.Volume, res.TestTime, res.Volume)
			}
			return err
		})
		sp.end()
		if err == nil {
			out.warm[fmt.Sprint(w)] = 1e3 * median(lat)
		}
		b.record(err)
	}
	return out, nil
}

// checkGiant compares the plan's makespan and volume with the value
// recorded for the seed's cube seed.
func checkGiant(seed int64, res *core.Result) error {
	got := [2]int64{res.TestTime, res.Volume}
	want, ok := giantGolden[giantCubeSeed(seed)]
	if !ok {
		return wrongf("giant plan (seed %d): no recorded value", seed)
	}
	if got != want {
		return wrongf("giant plan (seed %d): time %d volume %d, recorded %d %d", seed, got[0], got[1], want[0], want[1])
	}
	return nil
}
