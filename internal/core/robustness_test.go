package core

// Robustness regression tests: the singleflight cache-poisoning
// deadlock, panic containment at the package boundary, cooperative
// cancellation, and goroutine hygiene. These run under -race with a
// tight -timeout in the Makefile's `robustness` gate, so a regression
// shows up as a hang (caught by the timeout) rather than silent
// corruption.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// TestCacheGetPanicNoDeadlock is the regression test for the
// cache-poisoning deadlock: before the fix, a panic inside the build
// left the singleflight entry's done channel open forever, so every
// concurrent and future Get for that key blocked permanently (or, for
// the panicking goroutine itself, the panic escaped and killed the
// process). Now the panic must surface to every caller as a
// *PanicError and the poisoned entry must be evicted so a later Get
// rebuilds cleanly.
func TestCacheGetPanicNoDeadlock(t *testing.T) {
	c := compressibleCore(21)
	var cache Cache
	cache.buildHook = func(*soc.Core, TableOptions) { panic("injected build panic") }

	const callers = 8
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize contention on one entry
			_, errs[i] = cache.GetContext(context.Background(), c, TableOptions{MaxWidth: 10})
		}(i)
	}
	start.Done()

	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Get callers deadlocked on a panicked build (poisoned singleflight entry)")
	}

	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: panicked build returned a nil error", i)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: error %v is not a *PanicError", i, err)
		}
		if pe.Core != c.Name {
			t.Errorf("caller %d: PanicError.Core = %q, want %q", i, pe.Core, c.Name)
		}
	}

	// The poisoned entry must have been evicted: with the panic gone, the
	// same key builds successfully.
	cache.buildHook = nil
	tab, err := cache.GetContext(context.Background(), c, TableOptions{MaxWidth: 10})
	if err != nil {
		t.Fatalf("Get after evicted panic entry: %v", err)
	}
	if tab == nil || !tab.Best[10].Feasible {
		t.Fatal("rebuild after panic eviction produced a bad table")
	}
}

// TestCacheWaiterCancelPromptly: a caller coalesced onto someone else's
// in-flight build must stop waiting when its own context ends, without
// disturbing the build it was waiting on.
func TestCacheWaiterCancelPromptly(t *testing.T) {
	c := compressibleCore(22)
	var cache Cache
	started := make(chan struct{})
	release := make(chan struct{})
	cache.buildHook = func(*soc.Core, TableOptions) {
		close(started)
		<-release
	}

	opts := TableOptions{MaxWidth: 8}
	ownerErr := make(chan error, 1)
	go func() {
		_, err := cache.GetContext(context.Background(), c, opts)
		ownerErr <- err
	}()
	<-started // the owner is inside the build and holds the entry

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := cache.GetContext(ctx, c, opts)
		waiterDone <- err
	}()
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not return while the build was in flight")
	}

	// The owner's build was unaffected by the waiter's cancellation.
	close(release)
	if err := <-ownerErr; err != nil {
		t.Fatalf("build owner failed after a waiter cancelled: %v", err)
	}
}

// TestCacheDeterministicErrorCached: a deterministic build failure is a
// property of the key (a table build is pure), so it stays cached — unlike
// panics and cancellations, which evict.
func TestCacheDeterministicErrorCached(t *testing.T) {
	bad := compressibleCore(23)
	bad.CareDensity = 0 // generator rejects it, deterministically
	var cache Cache
	var builds atomic.Int64
	cache.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }

	_, err1 := cache.GetContext(context.Background(), bad, TableOptions{MaxWidth: 8})
	if err1 == nil {
		t.Fatal("invalid core built successfully")
	}
	_, err2 := cache.GetContext(context.Background(), bad, TableOptions{MaxWidth: 8})
	if err2 == nil {
		t.Fatal("second Get of invalid core succeeded")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for a deterministic error, want 1 (error must stay cached)", n)
	}
}

// TestParallelFor pins the contract of the package's one worker pool
// at one, two and eight workers: the lowest-index error wins, a panic
// becomes a *PanicError naming label(i)'s core and point (never a
// process crash), a cancelled ctx returns ctx.Err(), one worker runs
// every task on the calling goroutine in index order, and no goroutine
// outlives the call.
func TestParallelFor(t *testing.T) {
	// Goroutine accounting below needs the test to own the process's
	// goroutine count; do not mark this test parallel.
	label := func(i int) (string, string) { return "core7", fmt.Sprintf("point %d", i) }
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			const n = 32

			// Every task runs once, on a worker slot in range.
			var ran [n]atomic.Int64
			err := parallelFor(context.Background(), workers, n, nil, nil, label, func(w, i int) error {
				if w < 0 || w >= resolveWorkers(workers, n) {
					t.Errorf("task %d on worker %d", i, w)
				}
				ran[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("task %d ran %d times, want 1", i, got)
				}
			}

			// The lowest-index error wins, even when a higher-index task
			// fails first: task 3 is slow, task 10 fails at once.
			err3, err10 := errors.New("task 3"), errors.New("task 10")
			err = parallelFor(context.Background(), workers, n, nil, nil, label, func(_, i int) error {
				switch i {
				case 3:
					time.Sleep(20 * time.Millisecond)
					return err3
				case 10:
					return err10
				}
				return nil
			})
			if err != err3 {
				t.Errorf("error = %v, want the lowest-index error %v", err, err3)
			}

			// A panic is contained as a *PanicError from label, with the
			// panicking goroutine's stack, and counted.
			sink := telemetry.New()
			err = parallelFor(context.Background(), workers, n, sink, nil, label, func(_, i int) error {
				if i == 5 {
					panic("kernel blew up")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("panicking task: error %v is not a *PanicError", err)
			}
			if pe.Core != "core7" || pe.Point != "point 5" || pe.Value != "kernel blew up" {
				t.Errorf("PanicError = (%q, %q, %v), want (core7, point 5, kernel blew up)", pe.Core, pe.Point, pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "TestParallelFor") {
				t.Errorf("PanicError stack does not show the panicking task:\n%s", pe.Stack)
			}
			if got := sink.Snapshot().Counters["panic.recovered"]; got != 1 {
				t.Errorf("panic.recovered = %d, want 1", got)
			}

			// A done ctx stops claiming and returns ctx.Err().
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var claimed atomic.Int64
			err = parallelFor(ctx, workers, n, nil, nil, label, func(_, i int) error {
				claimed.Add(1)
				return nil
			})
			if !errors.Is(err, context.Canceled) || claimed.Load() != 0 {
				t.Errorf("pre-cancelled: err %v after %d tasks, want context.Canceled after 0", err, claimed.Load())
			}
			ctx, cancel = context.WithCancel(context.Background())
			err = parallelFor(ctx, workers, n, nil, nil, label, func(_, i int) error {
				if i == 2 {
					cancel()
				}
				return nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled mid-run: err %v, want context.Canceled", err)
			}

			// One worker: the calling goroutine, index order.
			if workers == 1 {
				caller := goroutineID()
				var order []int
				parallelFor(context.Background(), workers, n, nil, nil, label, func(_, i int) error {
					if id := goroutineID(); id != caller {
						t.Errorf("task %d ran on goroutine %d, want the caller's %d", i, id, caller)
					}
					order = append(order, i)
					return nil
				})
				for i, got := range order {
					if got != i {
						t.Fatalf("task order %v, want index order", order)
					}
				}
			}

			// Every worker goroutine is gone once the calls have returned
			// (they exit just after signalling the wait group, so poll).
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() int {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.Atoi(f[1])
	return id
}

// TestBuildTableContextCancelled: a context cancelled before (or during)
// the build makes BuildTableContext return ctx.Err(), not a table.
func TestBuildTableContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab, err := BuildTableContext(ctx, compressibleCore(25), TableOptions{MaxWidth: 12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tab != nil {
		t.Fatal("cancelled build returned a table")
	}
}

// TestSweepTDCContextCancelled mirrors the BuildTableContext check for the
// per-band sweep entry point.
func TestSweepTDCContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs, err := SweepTDCContext(ctx, compressibleCore(26), 8, 15, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cfgs != nil {
		t.Fatal("cancelled sweep returned configurations")
	}
}

// TestOptimizeCancelMidRun cancels an Optimize of the d695 benchmark
// while its first table build is in flight. The run must unwind with
// context.Canceled in bounded time and leave no goroutines behind.
func TestOptimizeCancelMidRun(t *testing.T) {
	// Goroutine accounting below needs the test to own the process's
	// goroutine count; do not mark this test parallel.
	before := runtime.NumGoroutine()

	s := soc.D695()
	ctx, cancel := context.WithCancel(context.Background())
	var cache Cache
	cache.buildHook = func(*soc.Core, TableOptions) { cancel() }

	start := time.Now()
	res, err := OptimizeContext(ctx, s, 32, Options{
		Style:   StyleTDCPerCore,
		Tables:  TableOptions{MaxWidth: 32},
		Cache:   &cache,
		Workers: 8,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Optimize returned a result")
	}
	// Cancellation lands at the next (w, m) kernel entry; even on a
	// loaded 1-CPU machine that is far under this bound, while an
	// uncancelled d695 run at MaxWidth 32 is far over it.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled Optimize took %v, cancellation not prompt", elapsed)
	}

	// All worker goroutines must drain. Poll: the pool exits
	// cooperatively, not synchronously with Optimize's return.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOptimizeContextMatchesOptimize: the context-threaded entry point
// with a nil or Background context is bit-identical to plain Optimize,
// at both worker extremes. Cancellation support must cost nothing in
// determinism.
func TestOptimizeContextMatchesOptimize(t *testing.T) {
	s := testSOC()
	var cache Cache // shared: tables are pure, so sharing cannot mask a diff
	base := Options{
		Style:  StyleTDCPerCore,
		Tables: TableOptions{MaxWidth: 16},
		Cache:  &cache,
	}
	type outcome struct {
		res *Result
		tag string
	}
	for _, workers := range []int{1, 8} {
		opts := base
		opts.Workers = workers
		var runs []outcome
		plain, err := Optimize(s, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, outcome{plain, "Optimize"})
		for _, tc := range []struct {
			tag string
			ctx context.Context
		}{{"nil ctx", nil}, {"Background", context.Background()}} {
			res, err := OptimizeContext(tc.ctx, s, 16, opts)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.tag, err)
			}
			runs = append(runs, outcome{res, tc.tag})
		}
		ref := runs[0].res
		for _, r := range runs[1:] {
			if !reflect.DeepEqual(r.res.Partition, ref.Partition) {
				t.Errorf("workers=%d %s: partition %v != %v", workers, r.tag, r.res.Partition, ref.Partition)
			}
			if !reflect.DeepEqual(r.res.Schedule, ref.Schedule) {
				t.Errorf("workers=%d %s: schedule differs", workers, r.tag)
			}
			if !reflect.DeepEqual(r.res.Choices, ref.Choices) {
				t.Errorf("workers=%d %s: choices differ", workers, r.tag)
			}
			if r.res.TestTime != ref.TestTime || r.res.Volume != ref.Volume {
				t.Errorf("workers=%d %s: time/volume %d/%d != %d/%d",
					workers, r.tag, r.res.TestTime, r.res.Volume, ref.TestTime, ref.Volume)
			}
		}
	}
}
