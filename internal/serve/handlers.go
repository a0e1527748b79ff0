package serve

// HTTP handlers: request parsing, the job lifecycle, and the two
// response shapes (buffered JSON, streamed NDJSON progress).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"soctap"
	"soctap/internal/core"
	"soctap/internal/telemetry"
)

// jobRequest is one parsed optimize request.
type jobRequest struct {
	soc     *soctap.SOC
	width   int
	opts    soctap.Options
	timeout time.Duration
	stream  bool
	mask    telemetry.EventMask // streamed event kinds
}

// optimizeResponse is the buffered (non-streaming) success body.
type optimizeResponse struct {
	JobID          string      `json:"job_id"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	Plan           soctap.Plan `json:"plan"`
}

// errorResponse is every error body.
type errorResponse struct {
	JobID string `json:"job_id,omitempty"`
	Error string `json:"error"`
}

// streamLine is the terminal line of a streamed response ("result" or
// "error"); progress lines before it are telemetry events in their bus
// JSON shape (kind span/counter/gauge/run).
type streamLine struct {
	Kind           string       `json:"kind"`
	JobID          string       `json:"job_id"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Error          string       `json:"error,omitempty"`
	Plan           *soctap.Plan `json:"plan,omitempty"`
}

// handleHealthz is the liveness/readiness probe: 200 while serving,
// 503 once draining so load balancers rotate the instance out while
// in-flight jobs finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleOptimize runs one optimize job end to end: rate limit, parse,
// admission, slot wait, the optimize itself, and the response.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.sink.Counter("serve.requests").Inc()

	if ok, retry := s.lim.allow(clientKey(r)); !ok {
		s.sink.Counter("serve.rate_limited").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)+1))
		writeError(w, http.StatusTooManyRequests, "", "rate limit exceeded")
		return
	}

	req, err := s.parseJob(r)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.sink.Counter("serve.bad_requests").Inc()
		writeError(w, status, "", err.Error())
		return
	}

	id, ok := s.beginJob()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "", "server is draining")
		return
	}
	defer s.jobs.Done()
	jobID := fmt.Sprintf("job-%d", id)

	// Admission bound: MaxJobs running plus MaxQueue waiting; everything
	// past that is refused now, not queued without bound.
	if n := s.pending.Add(1); n > int64(s.cfg.MaxJobs+s.cfg.MaxQueue) {
		s.pending.Add(-1)
		s.sink.Counter("serve.queue_rejected").Inc()
		writeError(w, http.StatusServiceUnavailable, jobID, "job queue full")
		return
	}
	defer s.pending.Add(-1)

	// The job context ends on whichever comes first: client disconnect,
	// per-request deadline, or server drain cancelling stragglers.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopDrainWatch := context.AfterFunc(s.jobsCtx, cancel)
	defer stopDrainWatch()
	ctx, cancelTimeout := context.WithTimeout(ctx, req.timeout)
	defer cancelTimeout()

	// Wait for a worker slot under the same context.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.failCtx(w, nil, jobID, ctx.Err(), 0)
		return
	}

	s.sink.Gauge("serve.jobs_inflight_max").Observe(int64(len(s.sem)))
	jobSink := telemetry.New()
	t0 := time.Now()
	if req.stream {
		s.runStreaming(ctx, w, jobID, jobSink, req, t0)
		return
	}
	res, err := soctap.OptimizeContext(ctx, req.soc, req.width, s.jobOptions(req, jobSink))
	elapsed := time.Since(t0)
	s.finishJob(jobSink, elapsed, err)
	if err != nil {
		s.failCtx(w, nil, jobID, err, elapsed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(optimizeResponse{
		JobID:          jobID,
		ElapsedSeconds: elapsed.Seconds(),
		Plan:           res.Plan(),
	})
}

// runStreaming serves one job as a live NDJSON feed: the job sink's
// telemetry events as they happen, closed by a result or error line.
// The response is already committed as 200 by the time the job can
// fail, so failures ride in the terminal line, not the status code.
func (s *Server) runStreaming(ctx context.Context, w http.ResponseWriter, jobID string, jobSink *telemetry.Sink, req *jobRequest, t0 time.Time) {
	sub := jobSink.Subscribe(req.mask, streamBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{}) // job-paced stream: per-request deadline governs, not WriteTimeout
	canFlush := rc.Flush() == nil
	enc := json.NewEncoder(w)
	flush := func() {
		if canFlush {
			if err := rc.Flush(); err != nil {
				canFlush = false
			}
		}
	}

	jobSink.PublishRun(jobID, "start")
	type outcome struct {
		res *soctap.Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := soctap.OptimizeContext(ctx, req.soc, req.width, s.jobOptions(req, jobSink))
		if err != nil {
			jobSink.PublishRun(jobID, "failed")
		} else {
			jobSink.PublishRun(jobID, "done")
		}
		resCh <- outcome{res, err}
	}()

	var out outcome
	for waiting := true; waiting; {
		select {
		case ev := <-sub.C():
			enc.Encode(ev)
			flush()
		case out = <-resCh:
			waiting = false
		}
	}
	// Publishing stopped with the job; drain what the ring still holds.
	sub.Close()
	for ev := range sub.C() {
		enc.Encode(ev)
	}
	elapsed := time.Since(t0)
	s.finishJob(jobSink, elapsed, out.err)

	line := streamLine{Kind: "result", JobID: jobID, ElapsedSeconds: elapsed.Seconds()}
	if out.err != nil {
		line.Kind, line.Error = "error", out.err.Error()
		s.countFailure(out.err)
	} else {
		p := out.res.Plan()
		line.Plan = &p
	}
	enc.Encode(line)
	flush()
}

// jobOptions assembles the soctap Options for one job: the client's
// knobs plus the shared cache and the job-private telemetry sink.
func (s *Server) jobOptions(req *jobRequest, jobSink *telemetry.Sink) soctap.Options {
	opts := req.opts
	opts.Cache = s.cfg.Cache
	opts.Telemetry = jobSink.Root()
	return opts
}

// finishJob folds the job sink into the global one and records the
// serve-level outcome series.
func (s *Server) finishJob(jobSink *telemetry.Sink, elapsed time.Duration, err error) {
	s.absorb(jobSink)
	s.sink.Histogram("serve.request_seconds").Observe(elapsed)
	if err == nil {
		s.sink.Counter("serve.completed").Inc()
	}
}

// countFailure classifies a failed job into the serve.* counters.
func (s *Server) countFailure(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.sink.Counter("serve.deadline_exceeded").Inc()
	case errors.Is(err, context.Canceled):
		s.sink.Counter("serve.cancelled").Inc()
	default:
		s.sink.Counter("serve.failed").Inc()
	}
}

// failCtx maps a job error onto an HTTP error response (buffered shape
// only; streams report errors in their terminal line).
func (s *Server) failCtx(w http.ResponseWriter, _ *jobRequest, jobID string, err error, _ time.Duration) {
	s.countFailure(err)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, jobID, "deadline exceeded: "+err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, jobID, "cancelled: "+err.Error())
	default:
		writeError(w, http.StatusUnprocessableEntity, jobID, err.Error())
	}
}

// writeError sends one JSON error body.
func writeError(w http.ResponseWriter, status int, jobID, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{JobID: jobID, Error: msg})
}

// parseJob reads the request into a jobRequest: the design from the
// body (a .soc file) or ?design= (a built-in benchmark name — the
// server never reads its own filesystem for a client), every optimizer
// knob from the query string.
func (s *Server) parseJob(r *http.Request) (*jobRequest, error) {
	q := r.URL.Query()
	req := &jobRequest{
		timeout: s.cfg.DefaultTimeout,
		mask:    telemetry.MaskSpan | telemetry.MaskRun,
	}

	if name := q.Get("design"); name != "" {
		soc, ok := soctap.AllBenchmarks()[name]
		if !ok {
			return nil, fmt.Errorf("unknown built-in design %q", name)
		}
		req.soc = soc
	} else {
		body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
		soc, err := soctap.ParseSOC(body)
		if err != nil {
			return nil, fmt.Errorf("parsing design body: %w", err)
		}
		req.soc = soc
	}

	var err error
	if req.width, err = intParam(q.Get("width"), 0); err != nil {
		return nil, fmt.Errorf("width: %w", err)
	}
	if req.width <= 0 {
		return nil, errors.New("width parameter required (total TAM wires, > 0)")
	}

	req.opts.Style = soctap.StyleTDCPerCore
	if name := q.Get("style"); name != "" {
		if req.opts.Style, err = core.ParseStyle(name); err != nil {
			return nil, err
		}
	}

	if req.opts.MaxTAMs, err = intParam(q.Get("max-tams"), 0); err != nil {
		return nil, fmt.Errorf("max-tams: %w", err)
	}
	if req.opts.Tables.BandSamples, err = intParam(q.Get("band-samples"), 0); err != nil {
		return nil, fmt.Errorf("band-samples: %w", err)
	}
	if req.opts.Tables.EvalWindow, err = intParam(q.Get("eval-window"), 0); err != nil {
		return nil, fmt.Errorf("eval-window: %w", err)
	}
	if req.opts.Tables.EvalWindow < 0 {
		return nil, errors.New("eval-window must be >= 0 (0 = automatic)")
	}
	req.opts.EnableDict = q.Get("techsel") == "1" || q.Get("techsel") == "true"
	req.stream = q.Get("stream") == "1" || q.Get("stream") == "true"

	// Per-job worker bound: the client may only narrow the server's.
	workers, err := intParam(q.Get("workers"), 0)
	if err != nil {
		return nil, fmt.Errorf("workers: %w", err)
	}
	req.opts.Workers = s.cfg.JobWorkers
	if workers > 0 && (s.cfg.JobWorkers <= 0 || workers < s.cfg.JobWorkers) {
		req.opts.Workers = workers
	}

	if t := q.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			return nil, fmt.Errorf("timeout: %w", err)
		}
		if d <= 0 {
			return nil, errors.New("timeout must be positive")
		}
		req.timeout = d
	}
	req.timeout = min(req.timeout, s.cfg.MaxTimeout)

	if kinds := q.Get("kinds"); kinds != "" {
		mask, err := telemetry.ParseKinds(kinds)
		if err != nil {
			return nil, err
		}
		req.mask = mask
	}
	return req, nil
}

// intParam parses an optional integer query parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// clientKey identifies the client for rate limiting: the API key
// header when present (one tenant, many addresses), else the remote
// host (one address, no key).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host := r.RemoteAddr
	if i := lastColon(host); i >= 0 {
		host = host[:i]
	}
	return "addr:" + host
}

// lastColon finds the port separator in a host:port remote address
// (IPv6-safe: the last colon, with bracketed literals intact before it).
func lastColon(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			return i
		}
	}
	return -1
}

// streamBuffer is the per-stream event ring depth; a slower reader
// loses events (they are progress, not records) rather than stalling
// the job.
const streamBuffer = 1024
