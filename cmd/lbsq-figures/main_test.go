package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lbsq/internal/experiments"
	"lbsq/internal/sim"
)

var wallClock = regexp.MustCompile(`"wall_seconds":[0-9.e+-]+`)

// TestFaultGridRows drives the built binary: -fig faults prints one
// self-checked sim.Report JSON line per FaultGrid cell and nothing else —
// `make bench` redirects it into results/BENCH_faults.json — and the rows
// do not depend on the worker count, which is GOMAXPROCS.
func TestFaultGridRows(t *testing.T) {
	dir := t.TempDir()
	binary := filepath.Join(dir, "lbsq-figures")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	rows := func(procs string) string {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(binary, "-fig", "faults", "-side", "1", "-hours", "0.02")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, stderr.Bytes())
		}
		return wallClock.ReplaceAllString(stdout.String(), `"wall_seconds":0`)
	}
	serial, parallel := rows("1"), rows("2")
	if serial != parallel {
		t.Fatal("rows at GOMAXPROCS=1 and GOMAXPROCS=2 differ")
	}

	lines := strings.Split(strings.TrimSuffix(serial, "\n"), "\n")
	if cells := len(experiments.FaultGrid()); len(lines) != cells {
		t.Fatalf("%d lines for %d grid cells", len(lines), cells)
	}
	for i, line := range lines {
		var rep sim.Report
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil || dec.More() {
			t.Fatalf("line %d is not one sim.Report (%v): %q", i+1, err, line)
		}
		if !rep.SelfCheck {
			t.Errorf("line %d: self_check_passed is false", i+1)
		}
	}
}
