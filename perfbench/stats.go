package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to be supported by the data.
const minTail = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (Hyndman–Fan type 7, the rule of
// numpy's default and of statistics.quantiles(method="inclusive")). xs
// need not be sorted and is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns want when at least minTail of n samples lie
// beyond it, else the highest quantile that still has minTail samples
// beyond it; ok is false when even that does not lie above the median.
func tailQuantile(n int, want float64) (q float64, ok bool) {
	if n > 0 && beyond(n, want) >= minTail {
		return want, true
	}
	if n-1 <= minTail {
		return 0, false
	}
	q = float64(n-1-minTail) / float64(n-1)
	return q, q >= 0.5
}

// beyond counts the samples strictly above the interpolation point of
// quantile q in n samples: the support of a tail percentile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	h := q * float64(n-1)
	return n - 1 - int(h)
}

// tail reports the tail percentile of xs and says on stderr how well
// the samples support it: the value at want, with the sample count and
// the highest percentile that still has minTail samples beyond it.
func tail(name string, xs []float64, want float64) float64 {
	note := "supported"
	switch q, ok := tailQuantile(len(xs), want); {
	case !ok:
		note = "no tail percentile supported"
	case q < want:
		note = fmt.Sprintf("only up to p%s has %d samples beyond it", pct(q), minTail)
	}
	logf("%s: p%s over n=%d (%s)", name, pct(want), len(xs), note)
	return quantile(xs, want)
}

func pct(q float64) string {
	return strings.TrimRight(strings.TrimRight(strconv.FormatFloat(q*100, 'f', 2, 64), "0"), ".")
}

// logf writes one diagnostic line to stderr; stdout carries only the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
