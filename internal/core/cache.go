package core

// The in-memory table cache tier. Tables are keyed by a hash of the
// core's structural content plus the normalized option set, so
// structurally identical cores — e.g. the same design file parsed twice
// — share one entry.
//
// Concurrency: the map is hash-sharded (cacheShards fixed shards, FNV-1a
// over the content key) so concurrent Gets touching different keys
// almost never contend on one mutex — the single-lock bottleneck of the
// earlier Cache, measurable in BenchmarkCacheGetParallel. Each shard
// preserves the full singleflight contract of PR 5 independently:
// concurrent callers of one key coalesce onto one build, the entry's
// done channel is always closed (even on panic), contained panics
// surface as *PanicError, and uncacheable outcomes (panic,
// cancellation) evict the entry so a later Get starts fresh — while a
// deterministic build error stays cached, because retrying a pure
// function cannot help. Shard count is invisible in results: tables are
// bit-identical whatever shard their key lands on.
//
// Bounding: each shard carries an intrusive LRU list of its resident
// (completed) entries. With a total budget installed (SetMemLimit,
// -table-cache-mem), each shard holds its 1/cacheShards share and
// evicts least-recently-used entries past it —
// an eviction only costs a rebuild (or a disk reload) on the next Get.
// The zero budget keeps today's unbounded behavior. cache.bytes /
// cache.evictions count the accounting; sizes are the tableMemBytes
// estimate, not exact heap bytes.

import (
	"context"
	"fmt"
	"sync"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// cacheShards is the fixed shard count: a power of two comfortably
// above typical core-level parallelism, small enough that the zero
// value stays cheap.
const cacheShards = 32

// Cache memoizes lookup tables across optimizer runs. The zero value is
// ready to use. Get is singleflight per key; SetDir layers the
// persistent disk tier (diskcache.go) under the memory tier; SetMemLimit
// and SetDiskLimit bound the two tiers.
type Cache struct {
	// confMu guards the configuration fields; the per-key fast path
	// never takes it (shards carry their own locks).
	confMu  sync.Mutex
	disk    *diskStore
	warn    func(msg string)
	memCap  int64 // total in-memory budget in bytes; 0 = unbounded
	diskCap int64 // disk-tier budget, held here until SetDir runs

	// buildHook, when non-nil, observes every table build the cache
	// actually starts (test instrumentation; disk-cache hits do not
	// count as builds). Set it before any Get.
	buildHook func(*soc.Core, TableOptions)

	shards [cacheShards]cacheShard
}

// cacheShard is one lock's worth of the table map plus the LRU list of
// its resident entries (head = most recently used).
type cacheShard struct {
	mu         sync.Mutex
	tables     map[string]*cacheEntry
	head, tail *cacheEntry
	bytes      int64
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when t/err are valid
	t    *Table
	err  error

	// LRU state, guarded by the owning shard's mutex. resident means
	// the entry completed cacheably and is linked into the shard list.
	prev, next *cacheEntry
	size       int64
	resident   bool
}

// shard picks the entry's home shard by FNV-1a over the content key.
func (cc *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &cc.shards[h%cacheShards]
}

// SetDir attaches a persistent on-disk table store at dir (created on
// first write). Entries found there satisfy Get without a rebuild;
// tables built after this call are written back, best-effort. Call it
// before concurrent use.
func (cc *Cache) SetDir(dir string) {
	cc.confMu.Lock()
	cc.disk = newDiskStore(dir, cc.diskCap)
	cc.confMu.Unlock()
}

// SetMemLimit bounds the in-memory tier to roughly n bytes of resident
// tables (0 = unbounded). Call it before concurrent use; entries past
// the budget are evicted least-recently-used as builds complete.
func (cc *Cache) SetMemLimit(n int64) {
	cc.confMu.Lock()
	cc.memCap = n
	cc.confMu.Unlock()
}

// SetDiskLimit bounds the disk tier to n bytes (0 = unbounded),
// enforced by atime-ordered eviction on write-back. Order-independent
// with SetDir.
func (cc *Cache) SetDiskLimit(n int64) {
	cc.confMu.Lock()
	cc.diskCap = n
	if cc.disk != nil {
		cc.disk.setCap(n)
	}
	cc.confMu.Unlock()
}

// SetWarn installs a callback for the disk store's otherwise-silent
// failure modes: corrupt, stale or mismatched entries (rebuilt in
// place) and failed write-backs. fn may be called from any goroutine
// the cache is used on; nil disables warnings. Call it before
// concurrent use.
func (cc *Cache) SetWarn(fn func(msg string)) {
	cc.confMu.Lock()
	cc.warn = fn
	cc.confMu.Unlock()
}

// warnf formats a warning through the SetWarn callback, if any.
func (cc *Cache) warnf(format string, args ...any) {
	cc.confMu.Lock()
	fn := cc.warn
	cc.confMu.Unlock()
	if fn != nil {
		fn(fmt.Sprintf(format, args...))
	}
}

// Get returns the memoized table for (c, opts), building it on first
// use. Concurrent calls with the same key wait for the single build in
// flight; a deterministic build error is cached (BuildTable is
// deterministic, so retrying cannot succeed), while cancellations and
// contained panics evict the entry so a later Get rebuilds.
func (cc *Cache) Get(c *soc.Core, opts TableOptions) (*Table, error) {
	return cc.get(context.Background(), c, opts, nil)
}

// GetContext is Get governed by ctx: both the build itself and the wait
// of callers coalesced onto someone else's in-flight build observe
// cancellation. A waiter whose ctx ends returns ctx.Err() immediately;
// the build it was waiting on is unaffected. A nil ctx behaves like
// context.Background().
func (cc *Cache) GetContext(ctx context.Context, c *soc.Core, opts TableOptions) (*Table, error) {
	return cc.get(ctx, c, opts, nil)
}

// GetInstrumented is Get with telemetry: cache probes and any resulting
// build are counted into tel's cache.*/diskcache.*/eval.* registries.
// A nil tel makes it identical to Get.
func (cc *Cache) GetInstrumented(c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	return cc.get(context.Background(), c, opts, tel)
}

// GetInstrumentedContext combines GetContext and GetInstrumented.
func (cc *Cache) GetInstrumentedContext(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	return cc.get(ctx, c, opts, tel)
}

// get is Get with an optional telemetry sink: memory- and disk-layer
// probes are counted (hits, misses, corrupt rebuilds, write errors) —
// exactly once per event, deterministically for any worker count,
// because the singleflight entry install serializes who counts the
// miss.
func (cc *Cache) get(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	key := contentKey(c, opts.normalized())
	sh := cc.shard(key)
	sh.mu.Lock()
	if sh.tables == nil {
		sh.tables = make(map[string]*cacheEntry)
	}
	if e, ok := sh.tables[key]; ok {
		if e.resident {
			sh.unlink(e)
			sh.pushFront(e)
		}
		sh.mu.Unlock()
		tel.Counter("cache.mem_hits").Inc()
		return e.wait(ctx)
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	sh.tables[key] = e
	sh.mu.Unlock()
	tel.Counter("cache.mem_misses").Inc()

	cc.build(ctx, sh, e, c, opts, tel)
	return e.t, e.err
}

// wait blocks until the entry's build completes or ctx ends. Bailing
// out early leaves the build (owned by another caller) running; this
// waiter just stops waiting for it.
func (e *cacheEntry) wait(ctx context.Context) (*Table, error) {
	if ctx.Done() == nil {
		<-e.done
		return e.t, e.err
	}
	select {
	case <-e.done:
		return e.t, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// build populates a freshly installed singleflight entry: disk-layer
// probe, then the in-memory build, then the best-effort write-back.
//
// The deferred epilogue is the fix for the cache-poisoning deadlock:
// e.done is ALWAYS closed — even when the build panics — so waiters can
// never block forever on a dead build. A panic is converted to a
// *PanicError (with the core attached) instead of unwinding into the
// caller, and any uncacheable outcome (panic or cancellation) evicts
// the entry from the map so future Gets start a fresh build rather than
// inheriting a failure that says nothing about the table itself. A
// cacheable outcome makes the entry resident in its shard's LRU, which
// may evict older entries past the memory budget.
func (cc *Cache) build(ctx context.Context, sh *cacheShard, e *cacheEntry, c *soc.Core, opts TableOptions, tel *telemetry.Sink) {
	cc.confMu.Lock()
	ds := cc.disk
	budget := int64(0)
	if cc.memCap > 0 {
		// A set budget must stay a budget even below cacheShards bytes:
		// round the per-shard share up to 1 so it never reads as
		// "unbounded".
		budget = max(cc.memCap/cacheShards, 1)
	}
	cc.confMu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			tel.Counter("panic.recovered").Inc()
			e.t, e.err = nil, newPanicError(c.Name, "table build", r)
		}
		sh.mu.Lock()
		if uncacheable(e.err) {
			if sh.tables[e.key] == e {
				delete(sh.tables, e.key)
			}
		} else if sh.tables[e.key] == e {
			sh.makeResident(e, budget, tel)
		}
		sh.mu.Unlock()
		close(e.done)
	}()

	if ds != nil {
		t, status := ds.load(e.key, c, opts.normalized(), tel, cc.warnf)
		if status == diskHit {
			e.t = t
			return
		}
	}
	if cc.buildHook != nil {
		cc.buildHook(c, opts)
	}
	e.t, e.err = buildTable(ctx, c, opts, tel)
	if e.err == nil && ds != nil {
		// Best-effort: a failed write only costs a rebuild next run.
		if err := ds.store(e.key, e.t, tel); err != nil {
			tel.Counter("diskcache.write_errors").Inc()
			cc.warnf("table cache: writing %s: %v", diskPath(ds.dir, e.key), err)
		}
	}
}

// makeResident links a completed entry into the shard's LRU, charges
// its size, and evicts past the per-shard budget (0 = unbounded).
// Caller holds sh.mu. The just-completed entry sits at the front, so it
// is evicted only when it alone exceeds the budget.
func (sh *cacheShard) makeResident(e *cacheEntry, budget int64, tel *telemetry.Sink) {
	e.size = tableMemBytes(e.t)
	e.resident = true
	sh.pushFront(e)
	sh.bytes += e.size
	tel.Counter("cache.bytes").Add(e.size)
	if budget <= 0 {
		return
	}
	for sh.bytes > budget && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		victim.resident = false
		delete(sh.tables, victim.key)
		sh.bytes -= victim.size
		tel.Counter("cache.evictions").Inc()
		tel.Counter("cache.bytes").Add(-victim.size)
		if victim == e {
			return // nothing older left; budget smaller than one table
		}
	}
}

// pushFront links e at the MRU end. Caller holds sh.mu.
func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds sh.mu; e must be
// linked.
func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// configMemBytes approximates one Config's resident footprint: the
// struct itself (two bools + string header + three ints + two int64s,
// padded) — codec strings are interned literals, not charged.
const configMemBytes = 64

// cacheEntryOverhead covers the entry, map slot and Table header for
// budget accounting; cached deterministic errors cost just this.
const cacheEntryOverhead = 256

// tableMemBytes estimates an entry's resident size for the LRU budget.
func tableMemBytes(t *Table) int64 {
	if t == nil {
		return cacheEntryOverhead
	}
	n := int64(len(t.NoTDC) + len(t.TDCExact) + len(t.TDCBest) + len(t.Best))
	return cacheEntryOverhead + n*configMemBytes
}
