// Command socserve runs the optimizer as a long-lived HTTP service:
// clients POST a .soc design (or name a built-in benchmark) and get the
// optimized architecture/schedule back as JSON, or as a live NDJSON
// progress stream with ?stream=1. All jobs share one bounded table
// cache, so identical cores across requests are built exactly once.
//
// Usage:
//
//	socserve -addr :8080 -jobs 4 -rate 10 -table-cache /var/cache/soctap
//
//	curl -s 'localhost:8080/v1/optimize?design=d695&width=32' -X POST
//	curl -s 'localhost:8080/v1/optimize?width=24&stream=1' -X POST --data-binary @my.soc
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: admission stops (healthz turns 503),
// in-flight jobs finish (up to -drain), then the listener closes. A
// second signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"soctap/internal/cli"
	"soctap/internal/serve"
	"soctap/internal/units"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 0, "concurrent optimize jobs (0 = default 2)")
	queue := flag.Int("queue", 0, "admitted jobs that may wait beyond -jobs (0 = default 64)")
	timeout := flag.Duration("timeout", 0, "per-request deadline when the client sends none (0 = default 60s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on the client-requested ?timeout= (0 = default 10m)")
	rate := flag.Float64("rate", 0, "per-client request rate limit in requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-client burst capacity (0 = max(2*rate, 4))")
	maxBody := flag.String("max-body", "", "largest accepted .soc upload, e.g. 8M (empty = default 8MiB)")
	jobWorkers := flag.Int("job-workers", 0, "evaluation-engine workers per job (0 = one per CPU); also caps the ?workers override")
	var cacheFlags cli.CacheFlags
	cacheFlags.Register(flag.CommandLine)
	drain := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
	flag.Parse()

	cfg, err := buildConfig(*jobs, *queue, *timeout, *maxTimeout, *rate, *burst,
		*maxBody, *jobWorkers, cacheFlags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "socserve:", err)
		os.Exit(cli.ExitUsage)
	}
	s := serve.New(cfg)

	// streamCtx outlives the drain: it parents every request context, so
	// cancelling it (after Drain) unblocks any still-open event streams
	// that http.Server.Shutdown would otherwise wait on forever.
	streamCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.Handler(),
		// No WriteTimeout: a buffered optimize response is written only
		// after a job that may legitimately run for minutes — the
		// per-request job deadline bounds handler lifetime instead, and
		// the streaming handlers manage their own write deadlines.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return streamCtx },
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("socserve: listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("socserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("socserve: draining (up to %v)", *drain)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		log.Printf("socserve: drain deadline hit, in-flight jobs cancelled: %v", err)
	}
	stopStreams()
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("socserve: shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("socserve: %v", err)
	}
	log.Printf("socserve: stopped")
}

// buildConfig assembles the serve.Config from the flag values,
// including the shared bounded table cache (nil when no cache flag is
// set: serve.New then creates an unbounded one). Split from main so
// the translation is testable.
func buildConfig(jobs, queue int, timeout, maxTimeout time.Duration, rate, burst float64,
	maxBody string, jobWorkers int, cacheFlags cli.CacheFlags) (serve.Config, error) {
	cfg := serve.Config{
		MaxJobs:        jobs,
		MaxQueue:       queue,
		DefaultTimeout: timeout,
		MaxTimeout:     maxTimeout,
		RatePerSec:     rate,
		Burst:          burst,
		JobWorkers:     jobWorkers,
	}
	if maxBody != "" {
		n, err := units.ParseBytes(maxBody)
		if err != nil {
			return cfg, fmt.Errorf("-max-body: %w", err)
		}
		cfg.MaxBodyBytes = n
	}
	var err error
	cfg.Cache, err = cacheFlags.Cache()
	return cfg, err
}
