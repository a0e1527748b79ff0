package main

// Bench-regression diffing: `benchjson -compare old.json new.json`
// loads two archived reports and diffs them metric by metric. Metrics
// whose unit implies a direction (ns/op is lower-is-better, cores/s is
// higher-is-better) regress when they move the wrong way by more than
// -threshold; directionless metrics are reported but never fail the
// comparison. Benchmarks match by name, and by package too when both
// reports record it (archives before pkg stamping carry none); repeated
// samples of one benchmark (-count N) compare by their per-metric
// median. The exit code is the contract `make bench-compare` keys on:
// 0 clean, 1 when any metric regressed or when no benchmark matched at
// all — a compare that compared nothing must never read as clean.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// metricDir is a metric's improvement direction.
type metricDir int

const (
	dirLower  metricDir = iota // lower is better (times, bytes, allocs)
	dirHigher                  // higher is better (throughputs, reduction factors)
	dirInfo                    // no inherent direction; never a regression
)

// direction classifies a metric unit. The suffixes mirror the units the
// repository's benchmarks actually report: "-bytes"/"-cycles" costs,
// "/s" throughputs and "-x" reduction factors. Anything else (e.g.
// "spread-%") is informational.
func direction(unit string) metricDir {
	switch unit {
	case "ns/op", "B/op", "allocs/op", "peak-bytes":
		return dirLower
	}
	switch {
	case strings.HasSuffix(unit, "-bytes"), strings.HasSuffix(unit, "-cycles"):
		return dirLower
	case strings.HasSuffix(unit, "/s"), strings.HasSuffix(unit, "-x"):
		return dirHigher
	}
	return dirInfo
}

// metricRow is one compared metric of one benchmark.
type metricRow struct {
	bench    string
	unit     string
	old, new float64
	dir      metricDir
}

// delta is the relative change from old to new; +0.25 means new is 25%
// larger. NaN when old is zero (printed as "n/a", never a regression —
// a zero baseline carries no scale to regress against).
func (r metricRow) delta() float64 {
	if r.old == 0 {
		return math.NaN()
	}
	return (r.new - r.old) / r.old
}

// regressed reports whether the metric moved in its losing direction by
// more than threshold.
func (r metricRow) regressed(threshold float64) bool {
	d := r.delta()
	if math.IsNaN(d) {
		return false
	}
	switch r.dir {
	case dirLower:
		return d > threshold
	case dirHigher:
		return d < -threshold
	}
	return false
}

// sameBench reports whether two results are the same benchmark: equal
// names, and equal packages unless either side has none.
func sameBench(a, b Benchmark) bool {
	return a.Name == b.Name && (a.Pkg == "" || b.Pkg == "" || a.Pkg == b.Pkg)
}

// medianSamples collapses repeated samples of one benchmark (the lines
// of a -count N run share pkg and name) into one result holding the
// per-metric median, keeping first-appearance order.
func medianSamples(bs []Benchmark) []Benchmark {
	var out []Benchmark
	var groups [][]Benchmark
	for _, b := range bs {
		i := slices.IndexFunc(out, func(o Benchmark) bool { return o.Pkg == b.Pkg && o.Name == b.Name })
		if i < 0 {
			out = append(out, b)
			groups = append(groups, nil)
			i = len(out) - 1
		}
		groups[i] = append(groups[i], b)
	}
	for i, g := range groups {
		if len(g) == 1 {
			continue
		}
		med := func(f func(Benchmark) float64) float64 {
			vs := make([]float64, len(g))
			for j, b := range g {
				vs[j] = f(b)
			}
			slices.Sort(vs)
			if n := len(vs); n%2 == 0 {
				return (vs[n/2-1] + vs[n/2]) / 2
			}
			return vs[len(vs)/2]
		}
		m := &out[i]
		m.NsPerOp = med(func(b Benchmark) float64 { return b.NsPerOp })
		m.BytesPerOp = int64(med(func(b Benchmark) float64 { return float64(b.BytesPerOp) }))
		m.AllocsPerOp = int64(med(func(b Benchmark) float64 { return float64(b.AllocsPerOp) }))
		m.PeakBytes = int64(med(func(b Benchmark) float64 { return float64(b.PeakBytes) }))
		metrics := make(map[string]float64, len(m.Metrics))
		for unit := range m.Metrics {
			metrics[unit] = med(func(b Benchmark) float64 { return b.Metrics[unit] })
		}
		m.Metrics = metrics
	}
	return out
}

// benchRows flattens one old/new benchmark pair into comparable metric
// rows. Fields that are zero on both sides are skipped (the benchmark
// does not report them); a metric present on only one side is skipped
// too — compare judges movement, not coverage.
func benchRows(old, new Benchmark) []metricRow {
	name := new.Name
	if new.Pkg != "" {
		name = new.Pkg + "." + new.Name
	}
	var rows []metricRow
	add := func(unit string, o, n float64) {
		if o == 0 && n == 0 {
			return
		}
		rows = append(rows, metricRow{bench: name, unit: unit, old: o, new: n, dir: direction(unit)})
	}
	add("ns/op", old.NsPerOp, new.NsPerOp)
	add("B/op", float64(old.BytesPerOp), float64(new.BytesPerOp))
	add("allocs/op", float64(old.AllocsPerOp), float64(new.AllocsPerOp))
	add("peak-bytes", float64(old.PeakBytes), float64(new.PeakBytes))
	for unit, n := range new.Metrics {
		if o, ok := old.Metrics[unit]; ok {
			add(unit, o, n)
		}
	}
	return rows
}

// runCompare diffs two reports, writing the per-metric table to w, and
// returns the number of failures: regressed metrics, plus one when no
// benchmark of new has a baseline in old. Benchmarks present in only
// one report are noted but not failed, as long as some benchmark
// matched.
func runCompare(old, new Report, threshold float64, w io.Writer) int {
	olds, news := medianSamples(old.Benchmarks), medianSamples(new.Benchmarks)
	fmt.Fprintf(w, "comparing %s (%s) -> %s (%s), threshold %.0f%%\n",
		old.Date, revOr(old.VCSRevision, "unknown rev"),
		new.Date, revOr(new.VCSRevision, "unknown rev"), threshold*100)

	regressions := 0
	matched := make([]bool, len(olds))
	for _, nb := range news {
		i := slices.IndexFunc(olds, func(ob Benchmark) bool { return sameBench(ob, nb) })
		if i < 0 {
			fmt.Fprintf(w, "  new benchmark (no baseline): %s\n", nb.Name)
			continue
		}
		matched[i] = true
		for _, r := range benchRows(olds[i], nb) {
			verdict := ""
			switch {
			case r.regressed(threshold):
				verdict = "  REGRESSION"
				regressions++
			case r.dir == dirInfo:
				verdict = "  (info)"
			}
			fmt.Fprintf(w, "  %-52s %-16s %14.4g -> %-14.4g %s%s\n",
				r.bench, r.unit, r.old, r.new, fmtDelta(r.delta()), verdict)
		}
	}
	for i, ob := range olds {
		if !matched[i] {
			fmt.Fprintf(w, "  benchmark disappeared: %s\n", ob.Name)
		}
	}
	switch {
	case !slices.Contains(matched, true):
		fmt.Fprintf(w, "FAIL: no benchmark of the new report (%d) matches one of the old report (%d); nothing was compared\n",
			len(news), len(olds))
		return regressions + 1
	case regressions > 0:
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed beyond %.0f%%\n", regressions, threshold*100)
	default:
		fmt.Fprintf(w, "ok: no metric regressed beyond %.0f%%\n", threshold*100)
	}
	return regressions
}

func fmtDelta(d float64) string {
	if math.IsNaN(d) {
		return "   n/a"
	}
	return fmt.Sprintf("%+5.1f%%", d*100)
}

func revOr(rev, fallback string) string {
	if rev == "" {
		return fallback
	}
	return rev
}

// loadReport reads one archived BENCH_*.json.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareMain is the -compare entry point: load both archives, diff,
// and exit 1 on any failure.
func compareMain(oldPath, newPath string, threshold float64) {
	old, err := loadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	new, err := loadReport(newPath)
	if err != nil {
		fatal(err)
	}
	if runCompare(old, new, threshold, os.Stdout) > 0 {
		os.Exit(1)
	}
}
