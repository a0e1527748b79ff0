package main

// The layer probes of the traced run: each calls one layer's public
// function on its own, on inputs derived from the seed, and reports
// that layer's metric. The probes are the same on every workload.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"soctap/internal/core"
	"soctap/internal/cube"
	"soctap/internal/sched"
	"soctap/internal/selenc"
	"soctap/internal/serve"
	"soctap/internal/sim"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
	"soctap/internal/wrapper"
)

const (
	// kernelBandSamples is how many m per codeword-width band the
	// kernel probe prices (both band edges included).
	kernelBandSamples = 4
	kernelRepeats     = 5 // timed kernel calls per point, of which the median counts
	searchProbePlans  = 1200
	serveProbeN       = 1000
	serveProbeRate    = 250 // requests per second
	parseProbeBodies  = 8
	memHitRounds      = 200
)

func probeLayers(b *bench) (map[string]float64, error) {
	ctx := context.Background()
	m := map[string]float64{}
	designs, err := tab3Designs()
	if err != nil {
		return nil, err
	}
	cores := distinctCores(designs)

	t0 := time.Now()
	for _, c := range cores {
		if _, err := c.TestSet(); err != nil {
			return nil, err
		}
	}
	m["cube.gen_s"] = time.Since(t0).Seconds()

	if m["wrapper.design_us"], err = probeWrapper(cores); err != nil {
		return nil, err
	}
	if m["kernel.point_us"], err = probeKernel(cores); err != nil {
		return nil, err
	}

	// Table builds of the Table 3 cores, cubes already generated, into
	// the cache every later probe reads.
	cache := new(core.Cache)
	sink := telemetry.New()
	t0 = time.Now()
	for _, c := range cores {
		if _, err := cache.GetInstrumentedContext(ctx, c, core.TableOptions{MaxWidth: tab3TableWidth}, sink); err != nil {
			return nil, err
		}
	}
	m["table.build_s"] = time.Since(t0).Seconds()
	m["table.pruned_ratio"] = prunedRatio(sink.Snapshot().Counters)

	t0 = time.Now()
	for range memHitRounds {
		for _, c := range cores {
			if _, err := cache.GetContext(ctx, c, core.TableOptions{MaxWidth: tab3TableWidth}); err != nil {
				return nil, err
			}
		}
	}
	m["cache.mem_hit_us"] = float64(time.Since(t0).Microseconds()) / float64(memHitRounds*len(cores))

	plans, err := probeSearch(b, cache, m)
	if err != nil {
		return nil, err
	}
	if err := probeSched(b, cache, plans, m); err != nil {
		return nil, err
	}
	if err := probeServe(b, cache, plans, m); err != nil {
		return nil, err
	}
	if m["cache.disk_store_ms"], err = probeDiskStore(b); err != nil {
		return nil, err
	}
	if err := probeGiant(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// distinctCores returns one core per name across designs (System1–4
// share industrial cores), in first-seen order.
func distinctCores(designs []*soc.SOC) []*soc.Core {
	seen := map[string]bool{}
	var out []*soc.Core
	for _, d := range designs {
		for _, c := range d.Cores {
			if !seen[c.Name] {
				seen[c.Name] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// bandPoints returns the m values a table build samples per
// codeword-width band of a core, up to the core's chain limit.
func bandPoints(c *soc.Core, maxWidth, samples int) ([]int, error) {
	var out []int
	maxM := c.MaxWrapperChains()
	for w := 3; w <= maxWidth; w++ {
		lo, hi, err := selenc.MBand(w)
		if err != nil {
			return nil, err
		}
		if lo > maxM {
			break
		}
		out = append(out, sampleBand(lo, min(hi, maxM), samples)...)
	}
	return out, nil
}

// sampleBand spreads samples points uniformly over [lo, hi], both
// edges included, or lists the band when it is no larger.
func sampleBand(lo, hi, samples int) []int {
	var out []int
	n := hi - lo + 1
	if n <= samples {
		for m := lo; m <= hi; m++ {
			out = append(out, m)
		}
		return out
	}
	prev := -1
	for i := range samples {
		if m := lo + (n-1)*i/(samples-1); m != prev {
			out = append(out, m)
			prev = m
		}
	}
	return out
}

// probeWrapper times wrapper.New plus StimulusMap per (core, m) over
// every core's sampled band points; µs per probe.
func probeWrapper(cores []*soc.Core) (float64, error) {
	var total time.Duration
	n := 0
	for _, c := range cores {
		ms, err := bandPoints(c, tab3TableWidth, kernelBandSamples)
		if err != nil {
			return 0, err
		}
		for _, mm := range ms {
			t0 := time.Now()
			d, err := wrapper.New(c, mm)
			if err != nil {
				return 0, err
			}
			d.StimulusMap()
			total += time.Since(t0)
			n++
		}
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n), nil
}

// probeKernel prices every sampled band point of every core with
// Evaluator.TDC on a prepared evaluator: the first call at an m builds
// the wrapper design and kernel layout, the timed later calls run only
// the kernel. µs per point: the mean over points of each point's
// median of kernelRepeats calls.
func probeKernel(cores []*soc.Core) (float64, error) {
	var total float64
	n := 0
	for _, c := range cores {
		ev, err := core.NewEvaluator(c)
		if err != nil {
			return 0, err
		}
		ms, err := bandPoints(c, tab3TableWidth, kernelBandSamples)
		if err != nil {
			return 0, err
		}
		for _, mm := range ms {
			want, err := ev.TDC(mm, true)
			if err != nil {
				return 0, err
			}
			lat, err := timeRepeats(kernelRepeats, func() error {
				got, err := ev.TDC(mm, true)
				if err == nil && got != want {
					err = fmt.Errorf("kernel probe: %s m=%d priced %+v then %+v", c.Name, mm, want, got)
				}
				return err
			})
			if err != nil {
				return 0, err
			}
			total += median(lat)
			n++
		}
	}
	return total * 1e6 / float64(n), nil
}

// prunedRatio is the share of (w, m) candidates the table builds
// pruned, from the program's eval.pruned and prune.<core>.evals
// counters.
func prunedRatio(counters map[string]int64) float64 {
	pruned := counters["eval.pruned"]
	evals := int64(0)
	for name, v := range counters {
		if strings.HasPrefix(name, "prune.") && strings.HasSuffix(name, ".evals") {
			evals += v
		}
	}
	return float64(pruned) / float64(max(pruned+evals, 1))
}

// mixPlan is one (design, width) of warm serve traffic.
type mixPlan struct {
	design string
	width  int
}

// warmMix draws n (design, width) pairs of warm traffic from rng.
func warmMix(rng *rand.Rand, n int) []mixPlan {
	out := make([]mixPlan, n)
	for i := range out {
		out[i] = mixPlan{
			design: serveDesigns[rng.Intn(len(serveDesigns))],
			width:  serveMinWidth + rng.Intn(serveMaxWidth-serveMinWidth+1),
		}
	}
	return out
}

// probeSearch plans the serve probe's design×width mix in-process on
// the warm cache and reports the plan latency percentiles.
func probeSearch(b *bench, cache *core.Cache, m map[string]float64) ([]*core.Result, error) {
	all := soc.AllBenchmarks()
	var lat []float64
	var plans []*core.Result
	for _, p := range warmMix(rand.New(rand.NewSource(b.seed)), searchProbePlans) {
		t0 := time.Now()
		res, err := core.OptimizeContext(context.Background(), all[p.design], p.width, core.Options{Style: core.StyleTDCPerCore, Cache: cache})
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		plans = append(plans, res)
	}
	m["search.plan_p50_ms"] = median(lat)
	m["search.plan_p99_ms"] = tail("search.plan", lat, 0.99)
	return plans, nil
}

// probeSched re-schedules every plan's final partition with
// sched.Greedy; µs per call. A makespan other than the plan's counts
// as a wrong output.
func probeSched(b *bench, cache *core.Cache, plans []*core.Result, m map[string]float64) error {
	var total time.Duration
	for _, res := range plans {
		dur, err := planDurations(context.Background(), res, cache, core.TableOptions{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		s, err := sched.Greedy(len(res.SOC.Cores), res.Partition, dur)
		total += time.Since(t0)
		if err == nil && s.Makespan != res.TestTime {
			err = wrongf("%s/%d: greedy makespan %d, plan %d", res.SOC.Name, res.WTAM, s.Makespan, res.TestTime)
		}
		b.record(err)
	}
	m["sched.greedy_us"] = float64(total.Nanoseconds()) / 1e3 / float64(len(plans))
	return nil
}

// probeServe measures the serving layer around the optimizer: JSON
// encoding of plans, parsing of upload bodies, and a warm open loop on
// a server over the probe cache for the overhead a request pays beyond
// its job and for the generator's own lateness. The upload bodies are
// small synthesized designs with cube seeds of their own.
func probeServe(b *bench, cache *core.Cache, plans []*core.Result, m map[string]float64) error {
	t0 := time.Now()
	for _, res := range plans {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Plan()); err != nil {
			return err
		}
	}
	m["serve.encode_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(plans))

	var parse time.Duration
	for k := range parseProbeBodies {
		d, err := uploadDesign(b.seed, k)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := soc.Write(&buf, d); err != nil {
			return err
		}
		t0 := time.Now()
		_, err = soc.Parse(&buf)
		parse += time.Since(t0)
		if err != nil {
			return err
		}
	}
	m["serve.parse_us"] = float64(parse.Nanoseconds()) / 1e3 / parseProbeBodies

	srv, err := startServer(serve.Config{Cache: cache})
	if err != nil {
		return err
	}
	defer srv.stop()
	oracle, err := oraclePlans(cache)
	if err != nil {
		return err
	}
	c := oneConnClient()
	defer c.CloseIdleConnections()
	st := openLoop(srv.base, c, warmSchedule(b.seed+1, serveProbeN, serveProbeRate))
	for _, o := range st.outcomes {
		if o.err == nil {
			o.err = checkPlan(o.req, o.plan, oracle[planKey(o.req.design, o.req.width)])
		}
		b.record(o.err)
	}
	m["serve.overhead_p50_ms"] = median(st.overheadMs)
	m["serve.overhead_p99_ms"] = tail("serve.overhead", st.overheadMs, 0.99)
	m["serve.gen_lag_p99_ms"] = tail("serve.gen_lag", st.lagMs, 0.99)
	return nil
}

// probeDiskStore times build-and-store misses of the d695 cores on a
// cache with a fresh disk tier; median ms per core.
func probeDiskStore(b *bench) (float64, error) {
	dir, err := os.MkdirTemp(b.out, "probe-tables-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cache := new(core.Cache)
	cache.SetDir(dir)
	var lat []float64
	for _, c := range soc.D695().Cores {
		t0 := time.Now()
		if _, err := cache.GetContext(context.Background(), c, core.TableOptions{}); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return median(lat), nil
}

// probeGiant measures the streaming layers on giant-stream's design:
// draining each core's cube source through a 64-cube window, the
// streamed table builds with the program's window-load counter, and
// the cycle-accurate verify of the resulting plan.
func probeGiant(b *bench, m map[string]float64) error {
	s, err := giantDesign(b.seed)
	if err != nil {
		return err
	}
	var w cube.Window
	cubes := 0
	t0 := time.Now()
	for _, c := range s.Cores {
		src, err := c.TestSource()
		if err != nil {
			return err
		}
		for n := w.Load(src, giantWindow); n > 0; n = w.Load(src, giantWindow) {
			cubes += n
		}
	}
	m["cube.stream_cubes_per_s"] = float64(cubes) / time.Since(t0).Seconds()
	if cubes != giantCores*giantPatterns {
		b.record(wrongf("streamed %d cubes, want %d", cubes, giantCores*giantPatterns))
	}

	ctx := context.Background()
	cache := new(core.Cache)
	sink := telemetry.New()
	t0 = time.Now()
	for _, c := range s.Cores {
		if _, err := cache.GetInstrumentedContext(ctx, c, core.TableOptions{EvalWindow: giantWindow}, sink); err != nil {
			return err
		}
	}
	m["table.stream_build_s"] = time.Since(t0).Seconds()
	m["table.window_loads"] = float64(sink.Snapshot().Counters["eval.window_loads"])

	res, err := core.OptimizeContext(ctx, s, giantWidth, giantOptions(cache))
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = sim.VerifyPlan(res)
	m["verify.plan_s"] = time.Since(t0).Seconds()
	if err != nil {
		err = fmt.Errorf("%w: giant plan fails simulation: %v", errWrong, err)
	}
	b.record(err)
	b.record(checkGiant(b.seed, res))
	return nil
}
