package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"lbsq/internal/sim"
)

// These tests drive the built binary, so they pin the command-line surface
// itself — flag names, defaults, report bytes, exit codes — and not the
// shape of main.go behind it.

var update = flag.Bool("update", false, "rewrite testdata/*.json from the binary built from this tree")

var binary string // built once by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lbsq-sim-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "lbsq-sim")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns stdout, stderr and the exit code. A
// run that outlives the timeout is killed and fails the test: a bad value
// must never turn into a hang.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, binary, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok || ctx.Err() != nil {
			t.Fatalf("lbsq-sim %v: %v (%v)", args, err, ctx.Err())
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// flagSurface is the sorted (name, default) list of every flag, read off
// `-h` of the binary built from commit b77d052 (the default is what the
// flag package prints after the usage; empty for a zero default), less
// -grid and -parallel (the fault grid is `lbsq-figures -fig faults`),
// -stale-rate (staleness comes from POI updates only), -crowd-x and
// -crowd-y (the hotspot is at the area centre), -governed (a governor
// floor arms the governor) and -burst-good-loss (the good state loses
// nothing beyond the Bernoulli knobs). -kind and -policy
// are enum flags now, whose zero default the flag package does not print;
// their usage lines name it.
var flagSurface = [][2]string{
	{"admission-burst", ``},
	{"admission-rate", ``},
	{"approx", `true`},
	{"attack", ``},
	{"audit-rate", ``},
	{"baseline", ``},
	{"blackout-duration", ``},
	{"blackout-period", ``},
	{"breaker-cooldown", ``},
	{"breaker-threshold", ``},
	{"burst-bad-loss", ``},
	{"burst-bad-slots", ``},
	{"burst-good-slots", ``},
	{"byzantine-rate", ``},
	{"cache", ``},
	{"churn-rate", ``},
	{"clusters", ``},
	{"coalesce-radius", ``},
	{"continuous-naive", ``},
	{"continuous-rate", ``},
	{"corrupt", ``},
	{"crowd-duration", ``},
	{"crowd-radius", ``},
	{"crowd-rate", ``},
	{"crowd-start", ``},
	{"deadline-slots", ``},
	{"degraded", ``},
	{"governor-floor", ``},
	{"hops", `1`},
	{"hours", `0.5`},
	{"ir-discard", ``},
	{"ir-period", ``},
	{"ir-window", ``},
	{"json", ``},
	{"k", ``},
	{"kind", ``},
	{"loss", ``},
	{"max-speed", ``},
	{"metrics", ``},
	{"metrics-listen", ``},
	{"metrics-out", ``},
	{"min-speed", ``},
	{"owncache", ``},
	{"policy", ``},
	{"prefill", `10`},
	{"queue-cap", ``},
	{"reply-loss", ``},
	{"req-loss", ``},
	{"retries", ``},
	{"retry-budget", ``},
	{"seed", `42`},
	{"selfcheck", ``},
	{"set", `"la"`},
	{"side", `5`},
	{"step", `10`},
	{"trace", ``},
	{"tx", ``},
	{"update-rate", ``},
	{"vr-ttl", ``},
	{"window", ``},
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultTail = regexp.MustCompile(`\(default (true|[0-9.]+|"[^"]*")\)$`)
)

// helpFlags parses `lbsq-sim -h`: every flag is a "  -name [type]" line
// followed by its usage line, in the flag package's PrintDefaults layout.
func helpFlags(t *testing.T) [][2]string {
	t.Helper()
	_, stderr, _ := run(t, "-h")
	var got [][2]string
	lines := strings.Split(stderr, "\n")
	for i, line := range lines {
		m := flagLine.FindStringSubmatch(line)
		if m == nil || i+1 == len(lines) {
			continue
		}
		def := ""
		if d := defaultTail.FindStringSubmatch(lines[i+1]); d != nil {
			def = d[1]
		}
		got = append(got, [2]string{m[1], def})
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	return got
}

func TestFlagSurfaceUnchanged(t *testing.T) {
	got := helpFlags(t)
	if len(got) != len(flagSurface) {
		t.Errorf("%d flags registered, want %d", len(got), len(flagSurface))
	}
	want := map[string]string{}
	for _, f := range flagSurface {
		want[f[0]] = f[1]
	}
	seen := map[string]bool{}
	for _, f := range got {
		def, ok := want[f[0]]
		switch {
		case seen[f[0]]:
			t.Errorf("flag -%s listed twice", f[0])
		case !ok:
			t.Errorf("new flag -%s", f[0])
		case def != f[1]:
			t.Errorf("flag -%s default %q, want %q", f[0], f[1], def)
		}
		seen[f[0]] = true
	}
	for _, f := range flagSurface {
		if !seen[f[0]] {
			t.Errorf("flag -%s is gone", f[0])
		}
	}
}

// reportCommands are three fixed runs whose -json rows are compared byte
// for byte (wall clock zeroed) with rows an earlier binary wrote: no knob
// armed; every layer and plain knob flag set to a non-default value, so a
// flag bound to the wrong field or not copied onto the preset shows; and
// the world flags, the enum flags and the hand-written -corrupt beside a
// metrics snapshot and the boolean ablations.
var reportCommands = []struct{ name, args string }{
	{"zero", "-set la -side 1 -hours 0.1 -seed 7 -owncache -selfcheck -json"},
	{"layers", "-set suburbia -side 1.5 -hours 0.1 -seed 11 -step 5 -hops 2 -clusters 3 " +
		"-prefill 5 -min-speed 15 -max-speed 40 -owncache -approx=false -selfcheck -json " +
		"-loss 0.05 -req-loss 0.1 -reply-loss 0.05 -retries 3 -churn-rate 0.05 " +
		"-deadline-slots 16 -breaker-threshold 3 -breaker-cooldown 6 -byzantine-rate 0.05 -audit-rate 0.3 " +
		"-update-rate 4 -ir-period 20 -ir-window 6 -vr-ttl 120 " +
		"-burst-bad-loss 0.9 -burst-good-slots 300 -burst-bad-slots 40 " +
		"-blackout-period 60 -blackout-duration 10 -degraded -continuous-rate 2 " +
		"-crowd-rate 300 -crowd-radius 0.3 -crowd-start 100 -crowd-duration 120 " +
		"-queue-cap 2 -retry-budget 8 -admission-rate 0.1 -admission-burst 3 -governor-floor 0.8 " +
		"-coalesce-radius 0.1"},
	{"attack", "-set riverside -kind window -side 3 -hours 0.2 -seed 5 -tx 250 -cache 30 -window 4 " +
		"-policy lru -metrics -json -corrupt 0.2 -byzantine-rate 0.2 -attack shift -audit-rate 0.5 " +
		"-ir-discard -update-rate 2 -continuous-rate 1 -continuous-naive"},
}

var wallClock = regexp.MustCompile(`"wall_seconds":[0-9.e+-]+`)

func TestJSONReportUnchanged(t *testing.T) {
	for _, c := range reportCommands {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := run(t, strings.Fields(c.args)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			got := wallClock.ReplaceAllString(stdout, `"wall_seconds":0`)
			path := filepath.Join("testdata", c.name+".json")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				lo := max(i-80, 0)
				t.Fatalf("report differs from %s at byte %d:\n got …%s\nwant …%s",
					path, i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
			}
		})
	}
}

// TestTextReportCarriesRow: the report lbsq-sim prints without -json is the
// row -json emits. Every non-zero leaf of stats and derived in each
// command's committed row is a "<key> <value>" line of the text (spacing
// aside): integers exact, floats to two decimals.
func TestTextReportCarriesRow(t *testing.T) {
	for _, c := range reportCommands {
		t.Run(c.name, func(t *testing.T) {
			args := slices.DeleteFunc(strings.Fields(c.args), func(a string) bool { return a == "-json" })
			stdout, stderr, code := run(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			lines := map[string]bool{}
			for _, line := range strings.Split(stdout, "\n") {
				lines[strings.Join(strings.Fields(line), " ")] = true
			}
			raw, err := os.ReadFile(filepath.Join("testdata", c.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var row sim.Report
			if err := json.Unmarshal(raw, &row); err != nil {
				t.Fatal(err)
			}
			for _, part := range []reflect.Value{reflect.ValueOf(row.Stats), reflect.ValueOf(row.Derived)} {
				for i := 0; i < part.NumField(); i++ {
					f, v := part.Type().Field(i), part.Field(i)
					if !f.IsExported() || v.IsZero() {
						continue
					}
					key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
					if key == "" {
						key = f.Name
					}
					want := fmt.Sprintf("%s %.2f", key, v.Interface())
					if v.CanInt() {
						want = fmt.Sprintf("%s %d", key, v.Int())
					}
					if !lines[want] {
						t.Errorf("no line %q in the report", want)
					}
				}
			}
		})
	}
}

// TestDecodedRowPrintsItsFaults: a row read back from its JSON prints the
// fault flags it carries, as the row of the run itself does.
func TestDecodedRowPrintsItsFaults(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "attack.json"))
	if err != nil {
		t.Fatal(err)
	}
	var row sim.Report
	if err := json.Unmarshal(raw, &row); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := row.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"  -byzantine-rate 0.2\n", "  -attack shift\n"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("no line %q in the text of the decoded row:\n%s", strings.TrimSpace(want), text.String())
		}
	}
}

// TestEveryStatHasASection: every exported Stats field is a number that
// names its heading in the text report in a `section` tag, a section's
// fields are declared together, and Stats stays flat (bench/ sums it field
// by field). A `metric` tag makes the field part of a /metrics counter: the
// name is lbsq_*_total, and the first field declaring it carries its
// `help`.
func TestEveryStatHasASection(t *testing.T) {
	counter := regexp.MustCompile(`^lbsq_[a-z0-9_]+_total$`)
	seen, sections, last := map[string]bool{}, map[string]bool{}, ""
	typ := reflect.TypeOf(sim.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("Stats.%s is a %s, not a number", f.Name, f.Type)
		}
		section := f.Tag.Get("section")
		switch {
		case section == "":
			t.Errorf("Stats.%s has no section tag", f.Name)
		case section != last && sections[section]:
			t.Errorf("Stats.%s: section %s is not declared together", f.Name, section)
		}
		sections[section], last = true, section
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			if f.Tag.Get("help") != "" {
				t.Errorf("Stats.%s has a help tag and no metric", f.Name)
			}
			continue
		}
		if !counter.MatchString(name) {
			t.Errorf("Stats.%s: metric %q is not lbsq_*_total", f.Name, name)
		}
		if !seen[name] && f.Tag.Get("help") == "" {
			t.Errorf("Stats.%s: first field of %s carries no help", f.Name, name)
		}
		seen[name] = true
	}
}

// TestBadValuesExitTwo: a value outside a knob's range dies at parse time
// with exit status 2 and the flag's name, before any world is built. The
// world flags are checked like the layer knobs: -side NaN once hung, and
// -k -2, -tx NaN and -policy bogus once ran as if they were not given.
func TestBadValuesExitTwo(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"loss", "-0.1"},
		{"churn-rate", "NaN"},
		{"governor-floor", "1.2"},
		{"blackout-period", "+Inf"},
		{"req-loss", "0.97"},
		{"max-speed", "-3"},
		{"corrupt", "1.2"},
		{"side", "NaN"},
		{"side", "+Inf"},
		{"hours", "NaN"},
		{"k", "-2"},
		{"tx", "NaN"},
		{"policy", "bogus"},
	} {
		_, stderr, code := run(t, "-"+c.flag, c.value)
		if code != 2 || !strings.Contains(stderr, "-"+c.flag+": ") {
			t.Errorf("-%s %s: exit %d, stderr %q; want exit 2 naming the flag", c.flag, c.value, code, stderr)
		}
	}
}

// TestGoodValuesRun: values at the edge of what the checks admit still
// run — a negative seed and every spelling of the enum flags.
func TestGoodValuesRun(t *testing.T) {
	for _, arg := range []string{
		"-seed -3", "-policy lru", "-policy direction", "-policy LRU", "-kind window", "-kind KNN",
		"-attack none",
	} {
		_, stderr, code := run(t, append(strings.Fields(arg), "-side", "1", "-hours", "0.02", "-json")...)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr %q", arg, code, stderr)
		}
	}
}

// TestTraceWriteFailureExitsOne: a trace that cannot be written fails the
// run under its own name, whether the buffered events fail only at the
// final flush (a short run) or mid-run (a long one), and is never reported
// as a self-check failure.
func TestTraceWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, size := range []string{"-side 1 -hours 0.02", "-side 3 -hours 0.2"} {
		_, stderr, code := run(t, append(strings.Fields(size), "-trace", "/dev/full")...)
		if code != 1 || !strings.Contains(stderr, "/dev/full") || strings.Contains(stderr, "SELF-CHECK") {
			t.Errorf("%s -trace /dev/full: exit %d, stderr %q; want exit 1 naming the trace file", size, code, stderr)
		}
	}
}
