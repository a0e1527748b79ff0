package core

// Benchmarks for cache tier 2.0, archived by `make bench-json`:
// cold-load time and entry size of the v2 bitpacked container, and
// memory-hit throughput of the single-lock cache under parallel load.

import (
	"context"
	"os"
	"testing"

	"soctap/internal/soc"
)

// BenchmarkDiskLoad measures one full cold load of a v2 entry — file
// read, validation, decode, core re-attachment — and reports the
// on-disk entry size as entry-bytes.
func BenchmarkDiskLoad(b *testing.B) {
	c := compressibleCore(77)
	opts := TableOptions{MaxWidth: 64}.normalized()
	tab, err := BuildTableContext(context.Background(), c, opts)
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

// BenchmarkCacheGetParallel hammers warm Gets across many goroutines
// and 16 distinct keys: every probe is a memory hit, so the measured
// cost is key hashing plus map/lock traffic.
func BenchmarkCacheGetParallel(b *testing.B) {
	const nCores = 16
	opts := TableOptions{MaxWidth: 6, Workers: 1}
	cores := make([]*soc.Core, nCores)
	var cc Cache
	for i := range cores {
		cores[i] = compressibleCore(int64(900 + i))
		if _, err := cc.GetContext(context.Background(), cores[i], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		i := 0
		for pb.Next() {
			if _, err := cc.GetContext(ctx, cores[i%nCores], opts); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
