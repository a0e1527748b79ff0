package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"soctap/internal/telemetry"
)

// TestCacheFlags: the cache-flag rules every tool shares.
func TestCacheFlags(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		flags   CacheFlags
		cache   bool   // a cache is built
		wantErr string // substring of the error; "" = no error
	}{
		{"none", CacheFlags{}, false, ""},
		{"dir", CacheFlags{Dir: dir}, true, ""},
		{"mem only", CacheFlags{Mem: "64M"}, true, ""},
		{"zero mem", CacheFlags{Mem: "0"}, false, ""},
		{"all", CacheFlags{Dir: dir, Mem: "64M", Size: "256M"}, true, ""},
		{"bad mem", CacheFlags{Mem: "12 parsecs"}, false, "-table-cache-mem"},
		{"bad size", CacheFlags{Dir: dir, Size: "lots"}, false, "-table-cache-size"},
		{"size without dir", CacheFlags{Size: "1G"}, false, "-table-cache-size requires -table-cache"},
		{"zero size without dir", CacheFlags{Size: "0"}, false, "-table-cache-size requires -table-cache"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache, err := c.flags.Cache()
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (cache != nil) != c.cache {
				t.Errorf("cache = %v, want built %v", cache, c.cache)
			}
		})
	}
}

// TestRunFinish: the epilogue's exit codes and report rules — a
// successful or cancelled run writes its report (the cancelled one
// marked run.cancelled), a failed run writes none.
func TestRunFinish(t *testing.T) {
	cases := []struct {
		err       error
		code      int
		report    bool
		cancelled int64
	}{
		{nil, 0, true, 0},
		{fmt.Errorf("tab3: %w", context.Canceled), ExitInterrupted, true, 1},
		{context.DeadlineExceeded, ExitInterrupted, true, 1},
		{errors.New("boom"), 1, false, 0},
	}
	for _, c := range cases {
		f := Flags{Telemetry: "-"}
		var stdout, stderr bytes.Buffer
		r, err := f.Start("tool", &stdout, &stderr, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if code := r.Finish(c.err); code != c.code {
			t.Errorf("Finish(%v) = %d, want %d", c.err, code, c.code)
		}
		if !c.report {
			if stdout.Len() != 0 {
				t.Errorf("Finish(%v) wrote a report: %s", c.err, stdout.Bytes())
			}
			continue
		}
		var sn telemetry.Snapshot
		if err := json.Unmarshal(stdout.Bytes(), &sn); err != nil {
			t.Fatalf("Finish(%v) report is not JSON: %v\n%s", c.err, err, stdout.Bytes())
		}
		if got := sn.Counters["run.cancelled"]; got != c.cancelled {
			t.Errorf("Finish(%v): run.cancelled = %d, want %d", c.err, got, c.cancelled)
		}
		if c.err != nil && !strings.HasPrefix(stderr.String(), "tool: ") {
			t.Errorf("Finish(%v) stderr = %q", c.err, stderr.String())
		}
	}
}

// TestStartSink: the sink exists only when something consumes it.
func TestStartSink(t *testing.T) {
	cases := []struct {
		flags    Flags
		progress bool
		sink     bool
	}{
		{Flags{}, false, false},
		{Flags{}, true, true},
		{Flags{Telemetry: "-"}, false, true},
		{Flags{TelemetryText: true}, false, true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		r, err := c.flags.Start("tool", &out, &out, c.progress, false)
		if err != nil {
			t.Fatal(err)
		}
		if (r.Sink != nil) != c.sink {
			t.Errorf("%+v progress=%v: sink %v, want %v", c.flags, c.progress, r.Sink != nil, c.sink)
		}
		if code := r.Finish(nil); code != 0 {
			t.Errorf("Finish = %d", code)
		}
	}
}
