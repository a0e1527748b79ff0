package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"soctap/internal/telemetry"
)

// resolveWorkers maps a Workers option to an actual pool size: zero (or
// negative) means one worker per available CPU, and the pool never
// exceeds the task count.
func resolveWorkers(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelFor runs fn(worker, i) for every i in [0, n) over
// resolveWorkers(workers, n) workers. It is the one place the package
// starts worker goroutines: the table sweeps, the per-core table
// builds, the fused pass's window rounds and the search batches all
// fan out through it. Worker numbers lie in [0, resolveWorkers(workers,
// n)), so callers keep per-worker scratch (an Evaluator, a mirror, a
// sched.Planner) in a slice indexed by them, and tasks write their
// results to indexed slots, which keeps the outcome independent of
// scheduling. One worker runs every task on the calling goroutine in
// index order; more claim indices from one atomic cursor, with the
// calling goroutine as worker 0.
//
// Workers stop claiming after the first error, the first panic or a
// done ctx. The lowest-index error wins; without one, the result is
// ctx.Err(). A panic in fn is contained on the goroutine that raised
// it: it becomes a *PanicError naming label(i)'s core and point, and
// panic.recovered counts it on tel. A non-nil busy accumulates each
// worker's wall time.
func parallelFor(ctx context.Context, workers, n int, tel *telemetry.Sink, busy *telemetry.Timer, label func(i int) (core, point string), fn func(worker, i int) error) error {
	workers = resolveWorkers(workers, n)
	if workers == 1 {
		if busy != nil {
			t0 := time.Now()
			defer func() { busy.Add(time.Since(t0)) }()
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(tel, label, fn, 0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx int
		first  error
		wg     sync.WaitGroup
	)
	work := func(w int) {
		if busy != nil {
			t0 := time.Now()
			defer func() { busy.Add(time.Since(t0)) }()
		}
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := runTask(tel, label, fn, w, i); err != nil {
				mu.Lock()
				if first == nil || i < errIdx {
					errIdx, first = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// runTask is one task of parallelFor with its panic containment.
func runTask(tel *telemetry.Sink, label func(i int) (core, point string), fn func(worker, i int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tel.Counter("panic.recovered").Inc()
			core, point := label(i)
			err = newPanicError(core, point, r)
		}
	}()
	return fn(w, i)
}
