package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soctap/internal/telemetry"
)

// TestRunCancelled: a cancelled run exits 130 and still writes its
// telemetry report, marked run.cancelled.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tel := filepath.Join(t.TempDir(), "tel.json")
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-quiet", "fig2", "-telemetry", tel}, &stdout, &stderr)
	if code != 130 {
		t.Fatalf("exit %d, want 130: %s", code, stderr.String())
	}
	b, err := os.ReadFile(tel)
	if err != nil {
		t.Fatal(err)
	}
	var sn telemetry.Snapshot
	if err := json.Unmarshal(b, &sn); err != nil {
		t.Fatalf("telemetry report is not valid JSON: %v\n%s", err, b)
	}
	if n := sn.Counters["run.cancelled"]; n != 1 {
		t.Errorf("run.cancelled = %d, want 1", n)
	}
	if !strings.Contains(stderr.String(), "repro: interrupted") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestRunUsage: bad arguments and flag values exit 2, -h exits 0, an
// unknown experiment fails the run, and the usage line lists every
// experiment.
func TestRunUsage(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"-quiet", "fig9"}, 1},
		{[]string{"fig2", "fig3"}, 2},
		{[]string{"fig2", "-bogus"}, 2},
		{[]string{"fig2", "-table-cache-mem", "12 parsecs"}, 2},
		{[]string{"fig2", "-table-cache-size", "1G"}, 2},
		{[]string{"fig2", "-eval-window", "-1"}, 2},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.code {
			t.Errorf("repro %v exited %d, want %d: %s", c.args, code, c.code, stderr.String())
		}
	}
	var stderr bytes.Buffer
	run(context.Background(), nil, &stderr, &stderr)
	want := "{fig2|fig3|fig4|tab1|tab2|tab3|ablations|techsel|seeds|verify|all}"
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("usage does not list %s:\n%s", want, stderr.String())
	}
}
