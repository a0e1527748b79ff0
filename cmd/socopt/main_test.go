package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soctap/internal/core"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// readSnapshot decodes the telemetry report written to path.
func readSnapshot(t *testing.T, path string) *telemetry.Snapshot {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sn telemetry.Snapshot
	if err := json.Unmarshal(b, &sn); err != nil {
		t.Fatalf("telemetry report is not valid JSON: %v\n%s", err, b)
	}
	return &sn
}

// TestRunTableCacheWarm: two runs over one -table-cache directory
// print the same plan, and the second loads every table from disk.
func TestRunTableCacheWarm(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	var plans [2][]byte
	var snaps [2]*telemetry.Snapshot
	for i := range plans {
		tel := filepath.Join(tmp, "tel.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-design", "d695", "-width", "16", "-table-cache", dir, "-telemetry", tel, "-json", "-"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d exited %d: %s", i, code, stderr.String())
		}
		// The plan JSON follows the text summary; its cpu_seconds are
		// wall-clock timings, so they are zeroed before comparing.
		out := stdout.String()
		start := strings.Index(out, "\n{\n")
		if start < 0 {
			t.Fatalf("run %d printed no plan JSON:\n%s", i, out)
		}
		var plan core.PlanJSON
		if err := json.Unmarshal([]byte(out[start:]), &plan); err != nil {
			t.Fatalf("run %d plan JSON: %v", i, err)
		}
		plan.CPU = core.CPUJSON{}
		plans[i], _ = json.Marshal(plan)
		snaps[i] = readSnapshot(t, tel)
	}
	if !bytes.Equal(plans[0], plans[1]) {
		t.Errorf("plans differ across runs:\n%s\n%s", plans[0], plans[1])
	}
	if n := snaps[0].Counters["tables.built"]; n == 0 {
		t.Error("cold run built no tables")
	}
	if n := snaps[1].Counters["tables.built"]; n != 0 {
		t.Errorf("warm run built %d tables, want 0", n)
	}
	if n := snaps[1].Counters["diskcache.hits"]; n == 0 {
		t.Errorf("warm run has no disk hits: %v", snaps[1].Counters)
	}
}

// TestRunCancelled: a cancelled run exits 130 and still writes its
// telemetry report, marked run.cancelled.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tel := filepath.Join(t.TempDir(), "tel.json")
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-design", "d695", "-width", "16", "-telemetry", tel}, &stdout, &stderr)
	if code != 130 {
		t.Fatalf("exit %d, want 130: %s", code, stderr.String())
	}
	if n := readSnapshot(t, tel).Counters["run.cancelled"]; n != 1 {
		t.Errorf("run.cancelled = %d, want 1", n)
	}
	if !strings.Contains(stderr.String(), "socopt: interrupted") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestRunUsage: bad flags and flag values exit 2, -h exits 0.
func TestRunUsage(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"-design", "d695", "-bogus"}, 2},
		{[]string{"-design", "d695", "-style", "bogus"}, 2},
		{[]string{"-design", "d695", "-table-cache-mem", "12 parsecs"}, 2},
		{[]string{"-design", "d695", "-table-cache-size", "1G"}, 2},
		{[]string{"-design", "d695", "-eval-window", "-1"}, 2},
		{[]string{"-design", "/nonexistent/x.soc"}, 1},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.code {
			t.Errorf("socopt %v exited %d, want %d: %s", c.args, code, c.code, stderr.String())
		}
	}
}

func TestLoadDesignBuiltin(t *testing.T) {
	s, err := loadDesign("d695")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "d695" {
		t.Errorf("loaded %q", s.Name)
	}
}

func TestLoadDesignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.soc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := soc.Write(f, soc.D695()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := loadDesign(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 10 {
		t.Errorf("file design has %d cores", len(s.Cores))
	}
	if _, err := loadDesign("/nonexistent/file.soc"); err == nil {
		t.Error("missing file accepted")
	}
}
