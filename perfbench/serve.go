package main

// Serving helpers of the serve probe: an in-process optimization
// server (default serve.Config over the probe's table cache) on a
// localhost listener, driven by an open-loop generator of warm
// ?design= requests over the Table 3 designs at widths 8–64.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"soctap/internal/core"
	"soctap/internal/serve"
	"soctap/internal/soc"
)

const (
	serveMinWidth = 8
	serveMaxWidth = 64
	uploadCores   = 2
	// uploadShapeSeed fixes the upload designs' structure, so every
	// body costs the same to parse; each body's cube seeds are new.
	uploadShapeSeed = 1
)

// serveDesigns are the built-in designs warm requests name.
var serveDesigns = append([]string{"d695"}, soc.SystemNames()...)

// request is one scheduled warm request. due is its offset from the
// start of the loop.
type request struct {
	id     int64
	due    time.Duration
	design string
	width  int
}

// warmSchedule returns n warm requests drawn from seed, due at rate
// per second. It depends on nothing but its arguments.
func warmSchedule(seed int64, n, rate int) []request {
	out := make([]request, n)
	for i, p := range warmMix(rand.New(rand.NewSource(seed)), n) {
		out[i] = request{id: int64(i + 1), due: time.Duration(i) * time.Second / time.Duration(rate), design: p.design, width: p.width}
	}
	return out
}

// uploadDesign is the k-th upload body of a run: the iscas-profile
// structure at uploadShapeSeed with cube seeds no other body shares.
func uploadDesign(seed int64, k int) (*soc.SOC, error) {
	s, err := soc.Synthesize(context.Background(), soc.SynthSpec{
		Name: fmt.Sprintf("upload-%d-%d", seed, k), Profile: "iscas", Cores: uploadCores, Seed: uploadShapeSeed,
	})
	if err != nil {
		return nil, err
	}
	for i, c := range s.Cores {
		c.Seed = (seed*100_000+int64(k))*1000 + int64(i)
	}
	return s, nil
}

// server is a running serve.Server on a localhost listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

// startServer serves cfg on 127.0.0.1 at an ephemeral port.
func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop drains the job plane, closes the listener and waits for Serve.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx)
	s.hs.Shutdown(ctx)
	<-s.done
}

// oraclePlans plans every (design, width) warm traffic can name
// in-process on cache, in the JSON form a response carries.
func oraclePlans(cache *core.Cache) (map[string]core.PlanJSON, error) {
	out := map[string]core.PlanJSON{}
	all := soc.AllBenchmarks()
	for _, name := range serveDesigns {
		for w := serveMinWidth; w <= serveMaxWidth; w++ {
			res, err := core.OptimizeContext(context.Background(), all[name], w, core.Options{Style: core.StyleTDCPerCore, Cache: cache})
			if err != nil {
				return nil, err
			}
			p, err := jsonPlan(res.Plan())
			if err != nil {
				return nil, err
			}
			out[planKey(name, w)] = p
		}
	}
	return out, nil
}

func planKey(design string, w int) string { return fmt.Sprintf("%s/%d", design, w) }

// jsonPlan round-trips p through JSON, as a response carries it, with
// the run-dependent CPU times cleared.
func jsonPlan(p core.PlanJSON) (core.PlanJSON, error) {
	var out core.PlanJSON
	data, err := json.Marshal(p)
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	out.CPU = core.CPUJSON{}
	return out, err
}

// oneConnClient returns a client that holds at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// checkPlan compares a served plan with the reference.
func checkPlan(req request, got, want core.PlanJSON) error {
	got.CPU = core.CPUJSON{}
	if !reflect.DeepEqual(got, want) {
		return wrongf("request %d (%s): served plan differs from the in-process plan", req.id, planKey(req.design, req.width))
	}
	return nil
}

// outcome is one answered (or failed) request.
type outcome struct {
	req  request
	plan core.PlanJSON
	err  error
}

// loopStats is what one open loop measured, in milliseconds.
type loopStats struct {
	overheadMs []float64 // send-to-response time minus the server's elapsed_seconds
	lagMs      []float64 // how late the generator sent each request
	outcomes   []outcome
}

// openLoop sends reqs on c, each at its due time after the loop's
// start whatever the state of earlier ones, and waits for every
// response.
func openLoop(base string, c *http.Client, reqs []request) loopStats {
	var (
		mu sync.Mutex
		st loopStats
		wg sync.WaitGroup
	)
	start := time.Now()
	send := func(req request) {
		defer wg.Done()
		due := start.Add(req.due)
		sent := time.Now()
		plan, elapsed, err := post(c, base, req)
		done := time.Now()

		mu.Lock()
		defer mu.Unlock()
		st.outcomes = append(st.outcomes, outcome{req, plan, err})
		st.lagMs = append(st.lagMs, ms(sent.Sub(due)))
		if err == nil {
			st.overheadMs = append(st.overheadMs, ms(done.Sub(sent))-elapsed*1e3)
		}
	}
	for _, req := range reqs {
		time.Sleep(time.Until(start.Add(req.due)))
		wg.Add(1)
		go send(req)
	}
	wg.Wait()
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// post sends one ?design= optimize request and decodes the plan and
// the server-side elapsed seconds from a 200 response.
func post(c *http.Client, base string, req request) (core.PlanJSON, float64, error) {
	url := fmt.Sprintf("%s/v1/optimize?width=%d&design=%s", base, req.width, req.design)
	resp, err := c.Post(url, "text/plain", http.NoBody)
	if err != nil {
		return core.PlanJSON{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return core.PlanJSON{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return core.PlanJSON{}, 0, fmt.Errorf("request %d: status %d: %s", req.id, resp.StatusCode, bytes.TrimSpace(data))
	}
	var r struct {
		ElapsedSeconds float64       `json:"elapsed_seconds"`
		Plan           core.PlanJSON `json:"plan"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return core.PlanJSON{}, 0, fmt.Errorf("request %d: decoding response: %w", req.id, err)
	}
	if r.ElapsedSeconds <= 0 {
		return core.PlanJSON{}, 0, errors.New("response without elapsed_seconds")
	}
	return r.Plan, r.ElapsedSeconds, nil
}
