package core

// Benchmarks for cache tier 2.0, archived by `make bench-json`:
// cold-load time and entry size of the v2 bitpacked container, and
// memory-hit throughput of the sharded cache against a single-lock
// baseline under parallel load.

import (
	"context"
	"os"
	"sync"
	"testing"

	"soctap/internal/soc"
)

// BenchmarkDiskLoad measures one full cold load of a v2 entry — file
// read, validation, decode, core re-attachment — and reports the
// on-disk entry size as entry-bytes.
func BenchmarkDiskLoad(b *testing.B) {
	c := compressibleCore(77)
	opts := TableOptions{MaxWidth: 64}.normalized()
	tab, err := BuildTable(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	key := contentKey(c, opts)
	dir := b.TempDir()
	if err := storeDiskTable(dir, key, tab); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(diskPath(dir, key))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size()), "entry-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, status, reason := loadDiskTable(dir, key, c, opts)
		if status != diskHit || t == nil {
			b.Fatalf("load status %v: %v", status, reason)
		}
	}
}

// singleLockCache is the pre-sharding design — one mutex in front of
// the whole table map — reproduced here as the contention baseline for
// BenchmarkCacheGetParallel. Only the memory-hit path matters for the
// comparison; the singleflight bookkeeping matches the real cache.
type singleLockCache struct {
	mu     sync.Mutex
	tables map[string]*cacheEntry
}

func (sc *singleLockCache) get(c *soc.Core, opts TableOptions) (*Table, error) {
	opts = opts.withDefaults()
	key := contentKey(c, opts.normalized())
	sc.mu.Lock()
	if sc.tables == nil {
		sc.tables = make(map[string]*cacheEntry)
	}
	if e, ok := sc.tables[key]; ok {
		sc.mu.Unlock()
		return e.wait(context.Background())
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	sc.tables[key] = e
	sc.mu.Unlock()
	e.t, e.err = BuildTable(c, opts)
	close(e.done)
	return e.t, e.err
}

// BenchmarkCacheGetParallel hammers warm Gets across many goroutines
// and 16 distinct keys: every probe is a memory hit, so the measured
// cost is key hashing plus map/lock traffic — the part the sharding
// parallelizes.
func BenchmarkCacheGetParallel(b *testing.B) {
	const nCores = 16
	opts := TableOptions{MaxWidth: 6, Workers: 1}
	cores := make([]*soc.Core, nCores)
	for i := range cores {
		cores[i] = compressibleCore(int64(900 + i))
	}

	b.Run("sharded", func(b *testing.B) {
		var cc Cache
		for _, c := range cores {
			if _, err := cc.Get(c, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := cc.Get(cores[i%nCores], opts); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("single-lock", func(b *testing.B) {
		var sc singleLockCache
		for _, c := range cores {
			if _, err := sc.get(c, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := sc.get(cores[i%nCores], opts); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
