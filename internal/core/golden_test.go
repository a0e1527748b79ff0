package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"soctap/internal/soc"
)

// goldenDigestsPath holds the checked-in sha256 digests of the v2
// encoding of every golden-matrix table (see goldenTableCases). They
// were captured from the three-mode evaluator this package used to
// carry (resident, per-point streamed, fused), so every build of the
// matrix is pinned to tables that predate the single evaluator path.
const goldenDigestsPath = "testdata/table_digests.golden"

// goldenWholeSet is the ≥ patterns point of the window axis: larger than
// every golden core's test set, so it clamps to one whole-set window.
const goldenWholeSet = 1 << 20

// goldenWindows is the EvalWindow axis of the golden matrix: automatic
// residency, single-cube windows, a window that splits every set
// unevenly, the default streaming window, and the whole set.
var goldenWindows = []int{0, 1, 7, DefaultEvalWindow, goldenWholeSet}

type goldenCase struct {
	core *soc.Core
	opts TableOptions
}

// id names a golden case in the digest file.
func (g goldenCase) id() string {
	return fmt.Sprintf("%s/p=%d/maxw=%d/bands=%d", g.core.Name, g.core.Patterns, g.opts.MaxWidth, g.opts.BandSamples)
}

// goldenTableCases is the core axis of the golden matrix: every d695
// core, every industrial core of System1–4 (ckt-1..ckt-12), and the
// decay and compressible synthetics, at widths and band samplings that
// keep the full matrix tractable under -race. The industrial cores keep
// their structure but are trimmed to 66 patterns: every streamed pass
// regenerates the set, and 66 still splits unevenly at every window of
// the axis below the whole set.
func goldenTableCases() []goldenCase {
	var cases []goldenCase
	for _, c := range soc.D695().Cores {
		cases = append(cases, goldenCase{c, TableOptions{MaxWidth: 10, BandSamples: 4}})
	}
	for _, name := range soc.IndustrialCoreNames() {
		cases = append(cases, goldenCase{trimmedCore(soc.MustIndustrialCore(name), 66), TableOptions{MaxWidth: 8, BandSamples: 3}})
	}
	cases = append(cases, goldenCase{decayCore(13), TableOptions{MaxWidth: 12}})
	cases = append(cases, goldenCase{compressibleCore(17), TableOptions{MaxWidth: 10, BandSamples: 4}})
	return cases
}

// tableDigest is the sha256 of a table's v2 cache encoding under its
// content key — every Config of every column, plus the recorded options.
func tableDigest(t *Table) string {
	key := contentKey(t.Core, t.Opts)
	sum := sha256.Sum256(encodeTableV2(key, t))
	return hex.EncodeToString(sum[:])
}

// readGoldenDigests parses the digest file: one "<case id> <sha256>"
// line per golden case, '#' lines being comments.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		out[id] = sum
	}
	return out
}

// checkGoldenTables is the exactness gate of table pricing: every golden
// core's table, built at every EvalWindow × Workers {1, 8} at the given
// fused batch size, must encode to its checked-in digest. A build whose
// window is shorter than the test set takes the fused sweep, so it must
// also be deeply equal to the whole-set-window build of the same core,
// which runs the plain band sweep.
func checkGoldenTables(t *testing.T, batch int) {
	t.Helper()
	want := readGoldenDigests(t)
	old := fusedBatchPoints
	defer func() { fusedBatchPoints = old }()
	for _, cse := range goldenTableCases() {
		sum, ok := want[cse.id()]
		if !ok {
			t.Errorf("%s: no golden digest", cse.id())
			continue
		}
		whole := cse.opts
		whole.EvalWindow = goldenWholeSet
		fusedBatchPoints = old
		ref, err := BuildTableContext(context.Background(), cse.core, whole)
		if err != nil {
			t.Fatal(err)
		}
		fusedBatchPoints = batch
		for _, window := range goldenWindows {
			for _, workers := range []int{1, 8} {
				opts := cse.opts
				opts.EvalWindow = window
				opts.Workers = workers
				tbl, err := BuildTableContext(context.Background(), cse.core, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := tableDigest(tbl); got != sum {
					t.Errorf("%s batch=%d window=%d workers=%d: digest %s, golden %s",
						cse.id(), batch, window, workers, got, sum)
				}
				if window > 0 && window < cse.core.Patterns && !reflect.DeepEqual(tbl, ref) {
					t.Errorf("%s batch=%d window=%d workers=%d: fused table differs from the whole-set build",
						cse.id(), batch, window, workers)
				}
			}
		}
	}
}

// TestStreamingTableEquivalence checks the golden matrix at the default
// fused batch size: kept whole-set windows and every streamed window
// price each golden core to its pinned table.
func TestStreamingTableEquivalence(t *testing.T) {
	checkGoldenTables(t, fusedBatchPoints)
}

// TestFusedTableEquivalence checks the golden matrix at a fused batch
// size of 3, which splits every band into several fused passes, so the
// per-batch bookkeeping of the fused sweep is exercised across batches.
func TestFusedTableEquivalence(t *testing.T) {
	checkGoldenTables(t, 3)
}
