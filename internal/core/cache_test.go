package core

// Tests for cache tier 2.0: the bounded disk store, the in-memory LRU,
// and the v2 format on the paper's benchmark cores.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// TestCacheNegativeBandSamplesShareKey: every negative BandSamples
// means an exhaustive band sweep, so -1 and -7 name the same table and
// must share one cache entry (one build, the second Get a memory hit).
func TestCacheNegativeBandSamplesShareKey(t *testing.T) {
	cc := new(Cache)
	var builds atomic.Int64
	cc.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	c := compressibleCore(7)
	a, err := cc.GetContext(context.Background(), c, TableOptions{MaxWidth: 8, BandSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.GetContext(context.Background(), c, TableOptions{MaxWidth: 8, BandSamples: -7})
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for BandSamples -1 then -7, want 1", n)
	}
	if a != b {
		t.Error("BandSamples -7 did not return the -1 table")
	}
}

// TestFormatV2MatchesV1OnBenchmarks is the acceptance gate for the
// table format on the paper's benchmark cores: on every d695 core and a
// synthetic industrial core, the table decoded from its v2 encoding and
// the table loaded back through the disk store are both DeepEqual to
// the freshly built one. (The name predates the removal of the gob v1
// format, whose tables the v2 ones were required to match.)
func TestFormatV2MatchesV1OnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full-benchmark format sweep")
	}
	cores := append([]*soc.Core{}, soc.D695().Cores...)
	cores = append(cores, soc.MustIndustrialCore("ckt-2"))
	opts := TableOptions{MaxWidth: 12, BandSamples: 8}
	for _, c := range cores {
		t.Run(c.Name, func(t *testing.T) {
			built, err := BuildTableContext(context.Background(), c, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := contentKey(c, opts.normalized())

			decoded, err := decodeTableV2(encodeTableV2(key, built), key, c, opts.normalized())
			if err != nil {
				t.Fatalf("v2 round trip: %v", err)
			}

			dir := t.TempDir()
			if err := storeDiskTable(dir, key, built); err != nil {
				t.Fatal(err)
			}
			loaded, status, reason := loadDiskTable(dir, key, c, opts.normalized())
			if status != diskHit {
				t.Fatalf("disk load: status %v (%v)", status, reason)
			}

			want := *built
			want.Core = nil
			for name, got := range map[string]*Table{"decoded": decoded, "loaded": loaded} {
				g := *got
				g.Core = nil
				if !reflect.DeepEqual(want, g) {
					t.Errorf("%s table differs from the built table", name)
				}
			}
		})
	}
}

// TestDiskCacheSizeBoundCountsFlatFiles: flat <dir>/<key>.table files
// left by revisions that predate the sharded layout are never read, but
// the size budget still counts them and evicts them oldest-first — also
// when one shares its key with a sharded entry written since — so an
// upgraded directory obeys -table-cache-size.
func TestDiskCacheSizeBoundCountsFlatFiles(t *testing.T) {
	dir := t.TempDir()
	opts := TableOptions{MaxWidth: 8}
	probe := compressibleCore(120)
	built, err := BuildTableContext(context.Background(), probe, opts)
	if err != nil {
		t.Fatal(err)
	}
	entrySize := int64(len(encodeTableV2(contentKey(probe, opts.normalized()), built)))

	// Two stray flat files, stamped in the past: one for the probe's own
	// key (the sharded rebuild below must not hide it from the index)
	// and one for a key no process will ask for again.
	old := time.Now().Add(-time.Hour)
	stray := []string{
		filepath.Join(dir, contentKey(probe, opts.normalized())+".table"),
		filepath.Join(dir, "ffff"+contentKey(probe, opts.normalized())[4:]+".table"),
	}
	for _, path := range stray {
		if err := os.WriteFile(path, make([]byte, entrySize), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	budget := 2*entrySize + entrySize/2
	var cache Cache
	cache.SetDir(dir)
	cache.SetDiskLimit(budget)
	sink := telemetry.New()
	for _, c := range []*soc.Core{probe, compressibleCore(121)} {
		if _, err := cache.GetInstrumentedContext(context.Background(), c, opts, sink); err != nil {
			t.Fatal(err)
		}
	}
	cn := sink.Snapshot().Counters
	if cn["diskcache.corrupt_rebuilds"] != 0 || cn["diskcache.misses"] != 2 {
		t.Errorf("flat files were read: %v, want two clean misses", cn)
	}
	var total int64
	for _, f := range cacheDirEntries(t, dir) {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > budget {
		t.Errorf("store holds %d bytes with flat files present, budget %d", total, budget)
	}
	for _, path := range stray {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("stale flat file %s survived eviction (err=%v)", filepath.Base(path), err)
		}
	}
	if cn["diskcache.evictions"] != 2 {
		t.Errorf("diskcache.evictions = %d, want the 2 flat files", cn["diskcache.evictions"])
	}
}

// TestDiskCacheSizeBound: with -table-cache-size in force the store
// evicts oldest-access entries so the directory never exceeds the
// budget, and counts what it did.
func TestDiskCacheSizeBound(t *testing.T) {
	dir := t.TempDir()
	opts := TableOptions{MaxWidth: 8}

	// Size one entry to pick a cap that fits exactly two.
	probe := compressibleCore(100)
	built, err := BuildTableContext(context.Background(), probe, opts)
	if err != nil {
		t.Fatal(err)
	}
	entrySize := int64(len(encodeTableV2(contentKey(probe, opts.normalized()), built)))

	var cache Cache
	cache.SetDir(dir)
	cache.SetDiskLimit(2*entrySize + entrySize/2)
	sink := telemetry.New()
	var lastKey string
	for seed := int64(101); seed <= 105; seed++ {
		c := compressibleCore(seed)
		if _, err := cache.GetInstrumentedContext(context.Background(), c, opts, sink); err != nil {
			t.Fatal(err)
		}
		lastKey = contentKey(c, opts.normalized())
	}

	files := cacheDirEntries(t, dir)
	var total int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 2*entrySize+entrySize/2 {
		t.Errorf("store holds %d bytes, budget %d", total, 2*entrySize+entrySize/2)
	}
	if len(files) > 2 {
		t.Errorf("%d entries survived a two-entry budget", len(files))
	}
	cn := sink.Snapshot().Counters
	if cn["diskcache.evictions"] < 3 {
		t.Errorf("diskcache.evictions = %d, want >= 3 (counters: %v)", cn["diskcache.evictions"], cn)
	}
	if got := cn["diskcache.bytes"]; got != total {
		t.Errorf("diskcache.bytes = %d, want the %d resident bytes (net of evictions)", got, total)
	}
	// The most recently stored entry must have survived.
	if _, err := os.Stat(diskPath(dir, lastKey)); err != nil {
		t.Errorf("most recent entry was evicted: %v", err)
	}

	// A restarting process (fresh index, built by directory scan) keeps
	// enforcing the budget.
	var second Cache
	second.SetDir(dir)
	second.SetDiskLimit(entrySize + entrySize/2)
	sink2 := telemetry.New()
	if _, err := second.GetInstrumentedContext(context.Background(), compressibleCore(106), opts, sink2); err != nil {
		t.Fatal(err)
	}
	files = cacheDirEntries(t, dir)
	if len(files) > 1 {
		t.Errorf("%d entries survived a one-entry budget after restart", len(files))
	}
}

// TestCacheMemBound: a memory budget smaller than one table still
// caches nothing permanently — every Get past the first rebuilds — and
// the accounting returns to zero; without a budget the second Get is a
// pure memory hit.
func TestCacheMemBound(t *testing.T) {
	c := compressibleCore(41)
	opts := TableOptions{MaxWidth: 8}

	var bounded Cache
	bounded.SetMemLimit(1)
	var builds atomic.Int64
	bounded.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	sink := telemetry.New()
	first, err := bounded.GetInstrumentedContext(context.Background(), c, opts, sink)
	if err != nil {
		t.Fatal(err)
	}
	second, err := bounded.GetInstrumentedContext(context.Background(), c, opts, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds under a 1-byte budget, want 2 (nothing may stay resident)", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("rebuilt table differs")
	}
	cn := sink.Snapshot().Counters
	if cn["cache.evictions"] != 2 {
		t.Errorf("cache.evictions = %d, want 2", cn["cache.evictions"])
	}
	if cn["cache.bytes"] != 0 {
		t.Errorf("cache.bytes = %d, want 0 after self-eviction", cn["cache.bytes"])
	}

	// Ample budget: entries stay resident and accounting matches the
	// estimator.
	var roomy Cache
	roomy.SetMemLimit(64 << 20)
	var builds2 atomic.Int64
	roomy.buildHook = func(*soc.Core, TableOptions) { builds2.Add(1) }
	sink2 := telemetry.New()
	if _, err := roomy.GetInstrumentedContext(context.Background(), c, opts, sink2); err != nil {
		t.Fatal(err)
	}
	tab, err := roomy.GetInstrumentedContext(context.Background(), c, opts, sink2)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds2.Load(); n != 1 {
		t.Errorf("%d builds with an ample budget, want 1", n)
	}
	cn2 := sink2.Snapshot().Counters
	if cn2["cache.evictions"] != 0 || cn2["cache.bytes"] != tableMemBytes(tab) {
		t.Errorf("ample-budget accounting: %v, want 0 evictions and bytes = %d", cn2, tableMemBytes(tab))
	}
}

// residentSize builds each core's table and returns their common
// tableMemBytes, failing the test if the sizes differ: the LRU tests
// size budgets in whole tables.
func residentSize(t *testing.T, opts TableOptions, cores ...*soc.Core) int64 {
	t.Helper()
	var size int64
	for i, c := range cores {
		tab, err := BuildTableContext(context.Background(), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := tableMemBytes(tab); i == 0 {
			size = n
		} else if n != size {
			t.Fatalf("table sizes differ: %d vs %d", n, size)
		}
	}
	return size
}

// TestCacheMemBoundEvictsLRU: with room for one table, the least
// recently used entry goes first — the re-touched key survives while
// the untouched one is evicted (observable as exactly one extra
// rebuild).
func TestCacheMemBoundEvictsLRU(t *testing.T) {
	opts := TableOptions{MaxWidth: 8}
	a, b := compressibleCore(200), compressibleCore(201)
	var cc Cache
	cc.SetMemLimit(residentSize(t, opts, a, b))
	var builds atomic.Int64
	cc.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }

	if _, err := cc.GetContext(context.Background(), a, opts); err != nil { // build a, resident
		t.Fatal(err)
	}
	if _, err := cc.GetContext(context.Background(), b, opts); err != nil { // build b, evicts a (LRU)
		t.Fatal(err)
	}
	if _, err := cc.GetContext(context.Background(), b, opts); err != nil { // touch b: still resident
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds in setup, want 2 (b must still be resident)", n)
	}
	if _, err := cc.GetContext(context.Background(), a, opts); err != nil { // a was evicted: rebuild
		t.Fatal(err)
	}
	if n := builds.Load(); n != 3 {
		t.Errorf("%d builds after re-Get of the evicted key, want 3", n)
	}
}

// TestCacheMemBudgetIsTotal: SetMemLimit bounds the whole memory tier.
// A budget of two tables keeps a table resident (one build for two
// Gets of its key), and a third key past the budget evicts only the
// least recently used entry.
func TestCacheMemBudgetIsTotal(t *testing.T) {
	opts := TableOptions{MaxWidth: 8}
	a, b, c := compressibleCore(210), compressibleCore(211), compressibleCore(212)
	var cc Cache
	cc.SetMemLimit(2 * residentSize(t, opts, a, b, c))
	var builds atomic.Int64
	cc.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	sink := telemetry.New()
	get := func(core *soc.Core) int64 {
		t.Helper()
		if _, err := cc.GetInstrumentedContext(context.Background(), core, opts, sink); err != nil {
			t.Fatal(err)
		}
		return builds.Load()
	}

	get(a)
	if n := get(a); n != 1 {
		t.Fatalf("%d builds for two Gets of one key under a two-table budget, want 1", n)
	}
	get(b) // both fit
	get(a) // touch a: b is now least recently used
	if n := get(c); n != 3 {
		t.Fatalf("%d builds after the third key, want 3", n)
	}
	if ev := sink.Snapshot().Counters["cache.evictions"]; ev != 1 {
		t.Errorf("cache.evictions = %d after the third key, want 1", ev)
	}
	if n := get(a); n != 3 {
		t.Errorf("recently used key rebuilt (%d builds), want it resident", n)
	}
	if n := get(b); n != 4 {
		t.Errorf("%d builds after re-Get of the LRU key, want 4 (it was evicted)", n)
	}
}

// TestCacheConcurrency hammers many goroutines across many keys on one
// Cache: every key must build exactly once (singleflight), every caller
// of a key must see the identical table pointer, and — under -race via
// `make cachefmt` — the map and LRU must be data-race-free.
func TestCacheConcurrency(t *testing.T) {
	const keys = 8
	const callersPerKey = 8
	opts := TableOptions{MaxWidth: 6, Workers: 1}

	var cc Cache
	buildCounts := make([]atomic.Int64, keys)
	coreSeed := func(i int) int64 { return int64(300 + i) }
	cc.buildHook = func(c *soc.Core, _ TableOptions) {
		for i := 0; i < keys; i++ {
			if c.Seed == coreSeed(i) {
				buildCounts[i].Add(1)
			}
		}
	}

	results := make([][]*Table, keys)
	for i := range results {
		results[i] = make([]*Table, callersPerKey)
	}
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		for j := 0; j < callersPerKey; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				tab, err := cc.GetContext(context.Background(), compressibleCore(coreSeed(i)), opts)
				if err != nil {
					t.Errorf("key %d caller %d: %v", i, j, err)
					return
				}
				results[i][j] = tab
			}(i, j)
		}
	}
	wg.Wait()

	for i := 0; i < keys; i++ {
		if n := buildCounts[i].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1", i, n)
		}
		for j := 1; j < callersPerKey; j++ {
			if results[i][j] != results[i][0] {
				t.Errorf("key %d caller %d received a different table instance", i, j)
			}
		}
	}
}

// TestDiskCacheBitFlipNeverPanics complements the fault-injection
// suite: flipping any single byte of a valid v2 entry must either still
// load the identical table (flips in slack bits) or land in
// diskcache.corrupt_rebuilds — never panic, never alter the result.
func TestDiskCacheBitFlipNeverPanics(t *testing.T) {
	c := compressibleCore(51)
	opts := TableOptions{MaxWidth: 6}
	dir := t.TempDir()
	var warm Cache
	warm.SetDir(dir)
	good, err := warm.GetContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := contentKey(c, opts.normalized())
	path := diskPath(dir, key)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	stride := len(orig)/64 + 1
	for off := 0; off < len(orig); off += stride {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), orig...)
			mut[off] ^= bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			var cold Cache
			cold.SetDir(dir)
			sink := telemetry.New()
			tab, err := cold.GetInstrumentedContext(context.Background(), c, opts, sink)
			if err != nil {
				t.Fatalf("offset %d bit %#x: %v", off, bit, err)
			}
			if tab.Best[6] != good.Best[6] {
				t.Fatalf("offset %d bit %#x: table silently changed", off, bit)
			}
			cn := sink.Snapshot().Counters
			if cn["diskcache.corrupt_rebuilds"]+cn["diskcache.hits"] != 1 {
				t.Fatalf("offset %d bit %#x: probe neither hit nor corrupt: %v", off, bit, cn)
			}
		}
	}
	// Restore a clean entry for no other reason than leaving the tempdir
	// consistent if later asserts are added.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}
