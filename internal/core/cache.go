package core

// The in-memory table cache tier. Tables are keyed by a hash of the
// core's structural content plus the normalized option set, so
// structurally identical cores — e.g. the same design file parsed twice
// — share one entry.
//
// Concurrency: one mutex guards the table map, the LRU list and the
// configuration. A memory hit costs about a microsecond, next to table
// builds that take milliseconds, so the lock is never the bottleneck.
// The map keeps the full singleflight contract: concurrent callers of
// one key coalesce onto one build, the entry's done channel is always
// closed (even on panic), contained panics surface as *PanicError, and
// uncacheable outcomes (panic, cancellation) evict the entry so a later
// call starts fresh — while a deterministic build error stays cached,
// because retrying a pure function cannot help.
//
// Bounding: resident (completed) entries sit on an intrusive LRU list.
// With a budget installed (SetMemLimit, -table-cache-mem), the total
// resident size stays within it: least-recently-used entries are
// evicted past it, and an eviction only costs a rebuild (or a disk
// reload) on the next call. The zero budget is unbounded. cache.bytes /
// cache.evictions count the accounting; sizes are the tableMemBytes
// estimate, not exact heap bytes.

import (
	"context"
	"fmt"
	"sync"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// Cache memoizes lookup tables across optimizer runs. The zero value is
// ready to use. GetContext is singleflight per key; SetDir layers the
// persistent disk tier (diskcache.go) under the memory tier;
// SetMemLimit and SetDiskLimit bound the two tiers.
type Cache struct {
	// mu guards every field below.
	mu      sync.Mutex
	disk    *diskStore
	warn    func(msg string)
	memCap  int64 // in-memory budget in bytes; 0 = unbounded
	diskCap int64 // disk-tier budget, held here until SetDir runs

	// buildHook, when non-nil, observes every table build the cache
	// actually starts (test instrumentation; disk-cache hits do not
	// count as builds). Set it before any GetContext.
	buildHook func(*soc.Core, TableOptions)

	// tables maps content keys to entries, in flight or resident; the
	// LRU list links the resident ones (head = most recently used).
	tables     map[string]*cacheEntry
	head, tail *cacheEntry
	bytes      int64
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when t/err are valid
	t    *Table
	err  error

	// LRU state, guarded by Cache.mu. resident means the entry
	// completed cacheably and is linked into the list.
	prev, next *cacheEntry
	size       int64
	resident   bool
}

// SetDir attaches a persistent on-disk table store at dir (created on
// first write). Entries found there satisfy GetContext without a rebuild;
// tables built after this call are written back, best-effort. Call it
// before concurrent use.
func (cc *Cache) SetDir(dir string) {
	cc.mu.Lock()
	cc.disk = newDiskStore(dir, cc.diskCap)
	cc.mu.Unlock()
}

// SetMemLimit bounds the in-memory tier to roughly n bytes of resident
// tables (0 = unbounded). Call it before concurrent use; entries past
// the budget are evicted least-recently-used as builds complete.
func (cc *Cache) SetMemLimit(n int64) {
	cc.mu.Lock()
	cc.memCap = n
	cc.mu.Unlock()
}

// SetDiskLimit bounds the disk tier to n bytes (0 = unbounded),
// enforced by atime-ordered eviction on write-back. Order-independent
// with SetDir.
func (cc *Cache) SetDiskLimit(n int64) {
	cc.mu.Lock()
	cc.diskCap = n
	if cc.disk != nil {
		cc.disk.setCap(n)
	}
	cc.mu.Unlock()
}

// SetWarn installs a callback for the disk store's otherwise-silent
// failure modes: corrupt, stale or mismatched entries (rebuilt in
// place) and failed write-backs. fn may be called from any goroutine
// the cache is used on; nil disables warnings. Call it before
// concurrent use.
func (cc *Cache) SetWarn(fn func(msg string)) {
	cc.mu.Lock()
	cc.warn = fn
	cc.mu.Unlock()
}

// warnf formats a warning through the SetWarn callback, if any.
func (cc *Cache) warnf(format string, args ...any) {
	cc.mu.Lock()
	fn := cc.warn
	cc.mu.Unlock()
	if fn != nil {
		fn(fmt.Sprintf(format, args...))
	}
}

// GetContext returns the memoized table for (c, opts), building it on
// first use. Concurrent calls with the same key wait for the single
// build in flight; a deterministic build error is cached (table builds
// are deterministic, so retrying cannot succeed), while cancellations
// and contained panics evict the entry so a later call rebuilds. Both
// the build itself and the wait of callers coalesced onto someone
// else's in-flight build observe ctx: a waiter whose ctx ends returns
// ctx.Err() immediately, and the build it was waiting on is unaffected.
// A nil ctx behaves like context.Background().
func (cc *Cache) GetContext(ctx context.Context, c *soc.Core, opts TableOptions) (*Table, error) {
	return cc.GetInstrumentedContext(ctx, c, opts, nil)
}

// GetInstrumentedContext is GetContext with telemetry: memory- and
// disk-layer probes (hits, misses, corrupt rebuilds, write errors) and
// any resulting build are counted into tel's cache.*/diskcache.*/eval.*
// registries — exactly once per event, deterministically for any
// worker count, because the singleflight entry install serializes who
// counts the miss. A nil tel makes it identical to GetContext.
func (cc *Cache) GetInstrumentedContext(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	key := contentKey(c, opts.normalized())
	cc.mu.Lock()
	if cc.tables == nil {
		cc.tables = make(map[string]*cacheEntry)
	}
	if e, ok := cc.tables[key]; ok {
		if e.resident {
			cc.unlink(e)
			cc.pushFront(e)
		}
		cc.mu.Unlock()
		tel.Counter("cache.mem_hits").Inc()
		return e.wait(ctx)
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	cc.tables[key] = e
	ds := cc.disk
	cc.mu.Unlock()
	tel.Counter("cache.mem_misses").Inc()

	cc.build(ctx, ds, e, c, opts, tel)
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
// probe (ds, nil without a disk tier), then the in-memory build, then
// the best-effort write-back.
//
// The deferred epilogue is the fix for the cache-poisoning deadlock:
// e.done is ALWAYS closed — even when the build panics — so waiters can
// never block forever on a dead build. A panic is converted to a
// *PanicError (with the core attached) instead of unwinding into the
// caller, and any uncacheable outcome (panic or cancellation) evicts
// the entry from the map so future calls start a fresh build rather than
// inheriting a failure that says nothing about the table itself. A
// cacheable outcome makes the entry resident in the LRU, which may
// evict older entries past the memory budget.
func (cc *Cache) build(ctx context.Context, ds *diskStore, e *cacheEntry, c *soc.Core, opts TableOptions, tel *telemetry.Sink) {
	defer func() {
		if r := recover(); r != nil {
			tel.Counter("panic.recovered").Inc()
			e.t, e.err = nil, newPanicError(c.Name, "table build", r)
		}
		cc.mu.Lock()
		if uncacheable(e.err) {
			if cc.tables[e.key] == e {
				delete(cc.tables, e.key)
			}
		} else if cc.tables[e.key] == e {
			cc.makeResident(e, tel)
		}
		cc.mu.Unlock()
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

// makeResident links a completed entry into the LRU, charges its size,
// and evicts past the memory budget (0 = unbounded). Caller holds
// cc.mu. The just-completed entry sits at the front, so it is evicted
// only when it alone exceeds the budget.
func (cc *Cache) makeResident(e *cacheEntry, tel *telemetry.Sink) {
	e.size = tableMemBytes(e.t)
	e.resident = true
	cc.pushFront(e)
	cc.bytes += e.size
	tel.Counter("cache.bytes").Add(e.size)
	if cc.memCap <= 0 {
		return
	}
	for cc.bytes > cc.memCap && cc.tail != nil {
		victim := cc.tail
		cc.unlink(victim)
		victim.resident = false
		delete(cc.tables, victim.key)
		cc.bytes -= victim.size
		tel.Counter("cache.evictions").Inc()
		tel.Counter("cache.bytes").Add(-victim.size)
		if victim == e {
			return // nothing older left; budget smaller than one table
		}
	}
}

// pushFront links e at the MRU end. Caller holds cc.mu.
func (cc *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = cc.head
	if cc.head != nil {
		cc.head.prev = e
	}
	cc.head = e
	if cc.tail == nil {
		cc.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds cc.mu; e must be
// linked.
func (cc *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		cc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		cc.tail = e.prev
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
