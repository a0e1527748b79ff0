// Package cli is the command-line wiring shared by socopt, repro and
// socserve: the table-cache flags and the cache they describe, the
// engine and run-report flags, the signal context, and the run
// lifecycle around them — profiles, telemetry sink and live metrics
// endpoint on the way in, and on the way out an epilogue that writes
// the run report and picks the exit code.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soctap/internal/core"
	"soctap/internal/telemetry"
	"soctap/internal/units"
)

// Exit codes beyond 0 (success) and 1 (the run failed).
const (
	ExitUsage       = 2   // bad flags or arguments
	ExitInterrupted = 130 // cancelled by SIGINT/SIGTERM
)

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM. Runs observe it cooperatively and unwind with ctx.Err().
// Once the first signal lands the default handlers are restored, so a
// second signal kills the process immediately.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// ParseExit maps a FlagSet.Parse error to an exit code: -h/-help is a
// successful exit, anything else a usage error (the FlagSet has
// already printed the message and usage).
func ParseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return ExitUsage
}

// CacheFlags are the table-cache flags.
type CacheFlags struct {
	Dir  string // -table-cache
	Mem  string // -table-cache-mem
	Size string // -table-cache-size
}

// Register declares the table-cache flags on fs.
func (f *CacheFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Dir, "table-cache", "", "directory for the persistent lookup-table cache (reused across runs)")
	fs.StringVar(&f.Mem, "table-cache-mem", "", "in-memory table cache budget, e.g. 64M or 2GiB (empty = unbounded)")
	fs.StringVar(&f.Size, "table-cache-size", "", "on-disk table cache budget under -table-cache, e.g. 512M (empty = unbounded)")
}

// Cache parses the flags into a table cache: the bounded in-memory
// tier, with the on-disk store layered under it when -table-cache is
// set. It returns nil when the flags ask for no cache at all. A bad
// byte size, or -table-cache-size without -table-cache, is an error.
func (f *CacheFlags) Cache() (*core.Cache, error) {
	mem, err := units.ParseBytes(f.Mem)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-mem: %w", err)
	}
	if f.Size != "" && f.Dir == "" {
		return nil, errors.New("-table-cache-size requires -table-cache")
	}
	disk, err := units.ParseBytes(f.Size)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-size: %w", err)
	}
	if f.Dir == "" && mem == 0 {
		return nil, nil
	}
	c := new(core.Cache)
	if mem > 0 {
		c.SetMemLimit(mem)
	}
	if disk > 0 {
		c.SetDiskLimit(disk)
	}
	if f.Dir != "" {
		c.SetDir(f.Dir)
	}
	return c, nil
}

// CheckEvalWindow is the eval-window rule shared by every front end: a
// negative window is rejected before any work starts.
func CheckEvalWindow(n int) error {
	if n < 0 {
		return errors.New("eval-window must be >= 0 (0 = automatic)")
	}
	return nil
}

// Flags are the flags of a one-shot optimizer run (socopt, repro): the
// table cache, the evaluation-engine bounds, and the run reports.
type Flags struct {
	CacheFlags
	Workers    int // -workers
	EvalWindow int // -eval-window

	Telemetry     string // -telemetry
	TelemetryText bool   // -telemetry-text
	MetricsAddr   string // -metrics-addr
	CPUProfile    string // -cpuprofile
	MemProfile    string // -memprofile
	Trace         string // -trace
}

// Register declares every run flag on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.CacheFlags.Register(fs)
	fs.IntVar(&f.Workers, "workers", 0, "evaluation-engine worker goroutines (0 = one per CPU, 1 = sequential; results are identical)")
	fs.IntVar(&f.EvalWindow, "eval-window", 0, "evaluator streaming window in cubes (0 = automatic by core size; results are identical)")
	fs.StringVar(&f.Telemetry, "telemetry", "", "write the telemetry snapshot (phase spans + counters) as JSON to this file ('-' for stdout)")
	fs.BoolVar(&f.TelemetryText, "telemetry-text", false, "render the telemetry snapshot as text on stderr after the run")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live /metrics, /events, /healthz and /debug/pprof on this address (e.g. :9090) while the run is in flight")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file (taken at exit)")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
}

// Cache validates the run flags and returns the table cache they
// describe (see CacheFlags.Cache). A negative -eval-window is an error,
// like a bad cache flag, so both fail before the run starts.
func (f *Flags) Cache() (*core.Cache, error) {
	if err := CheckEvalWindow(f.EvalWindow); err != nil {
		return nil, err
	}
	return f.CacheFlags.Cache()
}

// Run is a started run: the profiles, telemetry sink and metrics
// endpoint that Finish closes.
type Run struct {
	// Sink collects the run's spans and counters; nil when nothing
	// consumes them, so instrumentation costs nothing.
	Sink *telemetry.Sink

	tool           string
	flags          *Flags
	stdout, stderr io.Writer
	quiet          bool
	server         *telemetry.Server
	stopProfiles   func() error
}

// Start starts the run's profiles, its telemetry sink and the live
// metrics endpoint, and publishes the run's start on the event bus. The
// sink exists when a report flag or -metrics-addr asks for one, or when
// progress is set (the caller streams progress lines from the sink's
// span hook). quiet suppresses the notices Start and Finish print on
// stderr; errors are still printed.
func (f *Flags) Start(tool string, stdout, stderr io.Writer, progress, quiet bool) (*Run, error) {
	stopProfiles, err := telemetry.StartProfiles(f.CPUProfile, f.MemProfile, f.Trace)
	if err != nil {
		return nil, err
	}
	r := &Run{tool: tool, flags: f, stdout: stdout, stderr: stderr, quiet: quiet, stopProfiles: stopProfiles}
	if f.Telemetry != "" || f.TelemetryText || f.MetricsAddr != "" || progress {
		r.Sink = telemetry.New()
	}
	if f.MetricsAddr != "" {
		r.server, err = telemetry.StartServer(f.MetricsAddr, r.Sink)
		if err != nil {
			stopProfiles()
			return nil, err
		}
		if !quiet {
			fmt.Fprintf(stderr, "%s: serving metrics on http://%s/metrics\n", tool, r.server.Addr())
		}
	}
	r.Sink.PublishRun(tool, "start")
	return r, nil
}

// Finish ends the run with its outcome err and returns the exit code.
// It stops the profiles, then marks the run done or cancelled on the
// sink and writes the telemetry report — a cancelled run still reports
// the work it completed, with a run.cancelled counter. Then it shuts
// the metrics endpoint down (after a final scrape) and prints err.
// Cancellation exits 130, any other error 1.
func (r *Run) Finish(err error) int {
	if perr := r.stopProfiles(); err == nil {
		err = perr
	}
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if cancelled {
		r.Sink.Counter("run.cancelled").Inc()
		r.Sink.PublishRun(r.tool, "cancelled")
	} else if err == nil {
		r.Sink.PublishRun(r.tool, "done")
	}
	// Drain the asynchronous span hook so every progress line lands
	// ahead of the report.
	r.Sink.Flush()
	if err == nil || cancelled {
		if werr := r.writeReport(); err == nil {
			err = werr
		}
	}
	if serr := r.server.ShutdownTimeout(2 * time.Second); serr != nil && !r.quiet {
		fmt.Fprintf(r.stderr, "%s: metrics server: %v\n", r.tool, serr)
	}
	switch {
	case cancelled:
		fmt.Fprintf(r.stderr, "%s: interrupted: %v\n", r.tool, err)
		return ExitInterrupted
	case err != nil:
		fmt.Fprintf(r.stderr, "%s: %v\n", r.tool, err)
		return 1
	}
	return 0
}

// writeReport writes the telemetry snapshot to the -telemetry file
// ('-' is stdout) and renders it on stderr under -telemetry-text.
func (r *Run) writeReport() error {
	if r.Sink == nil {
		return nil
	}
	sn := r.Sink.Snapshot()
	if r.flags.Telemetry != "" {
		if err := WriteFile(r.flags.Telemetry, r.stdout, sn.WriteJSON); err != nil {
			return err
		}
	}
	if r.flags.TelemetryText {
		return sn.Render(r.stderr)
	}
	return nil
}

// WriteFile creates the file at path and writes it with write, or
// writes to stdout when path is "-".
func WriteFile(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
