// Command perfbench is the repository's benchmark: it runs one named
// workload against the system's public Go API, checks every output it
// produces, and prints its metrics as one JSON line.
//
//	perfbench -workload tab3-cold|giant-stream -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics, measured untraced.
// With -trace 1 every pass runs layer by layer, and passes alternate
// between untraced and traced (spans around each call into a layer,
// written to <out>/trace/); then the run probes each layer on its own
// and reports the per-layer metrics. run.sh builds it and is the
// normal entry point.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"warm_p50_ms", "ms"},
	{"warm_p99_ms", "ms"},
	{"cold_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = []metricDef{
	{"cube.gen_s", "s"},
	{"cube.stream_cubes_per_s", "1/s"},
	{"wrapper.design_us", "us"},
	{"kernel.point_us", "us"},
	{"table.build_s", "s"},
	{"table.stream_build_s", "s"},
	{"table.window_loads", "count"},
	{"table.pruned_ratio", "ratio"},
	{"cache.mem_hit_us", "us"},
	{"cache.disk_store_ms", "ms"},
	{"search.plan_p50_ms", "ms"},
	{"search.plan_p99_ms", "ms"},
	{"sched.greedy_us", "us"},
	{"verify.plan_s", "s"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.overhead_p99_ms", "ms"},
	{"serve.parse_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.gen_lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// workload is one fixed set of inputs the benchmark runs. setup builds
// what a pass starts from, repeatedly, and returns the set-up times;
// pass runs the workload's fixed work once, layer by layer when the run
// is traced, recording spans under root when tr is non-nil.
type workload interface {
	setup(b *bench) ([]float64, error)
	pass(b *bench, tr *tracer, root span) (passOut, error)
	close()
}

// A workload's inputs cost microseconds to build, so set-up times
// setupRounds batches of setupBatch builds and reports each batch's
// mean: one build's time, read off a span of milliseconds rather than
// of a few timer ticks. Each batch starts after a collection and runs
// with the collector off, so a collection cycle that happens to fall
// into a batch does not decide its time.
const (
	setupRounds = 21
	setupBatch  = 32
)

// warmRepeats is how many back-to-back runs a warm operation's latency
// is the median of.
const warmRepeats = 9

// timeSetup returns the mean duration in seconds of build over each
// of setupRounds batches; the first error ends it.
func timeSetup(build func() error) ([]float64, error) {
	out := make([]float64, setupRounds)
	for i := range out {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		var err error
		for j := 0; j < setupBatch && err == nil; j++ {
			err = build()
		}
		out[i] = time.Since(t0).Seconds() / setupBatch
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timeRepeats runs f n times and returns each run's duration in
// seconds; the first error ends it.
func timeRepeats(n int, f func() error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out, nil
}

// passOut is what one pass measured: its wall time in seconds, and the
// latency in milliseconds of each warm and cold operation, keyed by
// what the operation did. Operations a later pass repeats share a key.
type passOut struct {
	wall       float64
	warm, cold map[string]float64
}

var workloads = map[string]func(seed int64) workload{
	"tab3-cold":    newTab3,
	"giant-stream": newGiant,
}

// bench is the state of one run: its seed and length, whether it is
// traced, its artifact directory, and the tally of checked operations.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool // every pass runs layer by layer; every other one records spans
	out     string

	attempted, failed, wrong atomic.Int64
}

// errWrong marks an operation whose output failed its check, as
// opposed to one that returned an error.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

// record counts one checked operation; a non-nil err counts it failed,
// and a wrong output also marks the run incorrect.
func (b *bench) record(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	if b.failed.Add(1) <= 5 {
		logf("operation failed: %v", err)
	}
	if errors.Is(err, errWrong) {
		b.wrong.Add(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tab3-cold or giant-stream")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for traces and scratch files")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload tab3-cold|giant-stream -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	values, err := b.run(mk(*seed))
	if err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := resultOut{
		Correct:   b.wrong.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			logf("%s: metric %s not measured", *name, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
		logf("%-24s %14.6g %s", d.name, v, d.unit)
	}
	logf("fail_ratio %d/%d = %g", res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it for b.seconds and returns the
// metric values by name.
func (b *bench) run(w workload) (map[string]float64, error) {
	defer w.close()
	setups, err := w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var walls, tracedWalls []float64
	warm, cold := map[string][]float64{}, map[string][]float64{}
	var tr *tracer
	if b.traced {
		tr = newTracer()
	}
	// Start another pass while at least half a typical one fits before
	// the deadline, so a run's pass count does not hinge on a pass
	// ending a hair before or after it.
	deadline := time.Now().Add(b.seconds)
	more := func() bool {
		return time.Duration(median(walls)*float64(time.Second)/2) < time.Until(deadline)
	}
	for i := 0; more() || len(walls) == 0 || (b.traced && len(tracedWalls) == 0); i++ {
		var ptr *tracer // traced runs trace every other pass
		if i%2 == 1 {
			ptr = tr
		}
		root := ptr.start("bench.pass", span{})
		p, err := w.pass(b, ptr, root)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if ptr != nil {
			tracedWalls = append(tracedWalls, p.wall)
			continue
		}
		walls = append(walls, p.wall)
		for k, v := range p.warm {
			warm[k] = append(warm[k], v)
		}
		for k, v := range p.cold {
			cold[k] = append(cold[k], v)
		}
	}
	logf("%s seed %d: %d passes, wall %v", b.name, b.seed, len(walls), walls)
	if !b.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		w, c := perOp(warm), perOp(cold)
		return map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      median(walls),
			"peak_rss_mb": rss,
			"warm_p50_ms": median(w),
			"warm_p99_ms": tail("warm latency", w, 0.99),
			"cold_p50_ms": median(c),
		}, nil
	}

	m, err := probeLayers(b)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	// Both medians are of layer-by-layer passes, so they differ only
	// by the spans.
	m["trace.overhead_pct"] = 100 * (median(tracedWalls) - median(walls)) / median(walls)
	path := filepath.Join(b.out, "trace", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
	self, err := tr.write(path)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	logf("trace written to %s; self seconds by layer: %v", path, self)
	return m, nil
}

// perOp reduces repeated operations to the median of their latencies,
// one value per distinct operation.
func perOp(lat map[string][]float64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, xs := range lat {
		out = append(out, median(xs))
	}
	return out
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
