package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lbsq/internal/faults"
	"lbsq/internal/knob"
	"lbsq/internal/sim"
)

// newCLI registers lbsq-sim's flags on a fresh set.
func newCLI() (*flag.FlagSet, *cli) {
	fs := flag.NewFlagSet("lbsq-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, register(fs)
}

// checkFlags parses the arguments and runs the one range check main runs.
func checkFlags(t *testing.T, args ...string) error {
	t.Helper()
	fs, c := newCLI()
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return knob.Check(&c.knobs)
}

// TestCheckRates pins the parse-time flag validation: NaN, infinite,
// negative, and above-maximum values must be rejected with the
// offending flag's name; legal values (including the boundaries) must
// pass. This is the gate that keeps a typo like `-loss -0.1` from
// running: no layer below sim.Params.Validate re-checks or clamps a knob.
// The bounds are the `max` tags of the knob declarations.
func TestCheckRates(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantErr string // substring; "" = must pass
	}{
		{"empty", "", ""},
		{"zero is legal", "-loss 0", ""},
		{"max boundary is legal", "-loss 0.95", ""},
		{"interior value is legal", "-churn-rate 0.1", ""},
		{"probability boundary is legal", "-audit-rate 1", ""},
		{"unbounded duration is legal", "-blackout-period 1e9", ""},
		{"NaN", "-loss NaN", "-loss: NaN"},
		{"positive infinity", "-blackout-period +Inf", "-blackout-period: value must be finite"},
		{"negative infinity", "-update-rate -Inf", "-update-rate: "},
		{"negative rate", "-req-loss -0.1", "-req-loss: negative value -0.1"},
		{"negative duration", "-burst-bad-slots -4", "-burst-bad-slots: negative value -4"},
		{"above MaxRate", "-reply-loss 0.96", "-reply-loss: 0.96 exceeds maximum 0.95"},
		{"above probability", "-byzantine-rate 1.5", "-byzantine-rate: 1.5 exceeds maximum 1"},
		{"crowd rate is unbounded above", "-crowd-rate 1e6", ""},
		{"crowd geometry is legal", "-crowd-radius 2 -crowd-start 1e4 -crowd-duration 600", ""},
		{"governor floor boundary is legal", "-governor-floor 1", ""},
		{"negative crowd rate", "-crowd-rate -5", "-crowd-rate: negative value -5"},
		{"NaN admission rate", "-admission-rate NaN", "-admission-rate: NaN"},
		{"infinite crowd duration", "-crowd-duration +Inf", "-crowd-duration: value must be finite"},
		{"governor floor above one", "-governor-floor 1.2", "-governor-floor: 1.2 exceeds maximum 1"},
		{"negative coalesce radius", "-coalesce-radius -1", "-coalesce-radius: negative value -1"},
		{"second flag bad", "-loss 0.1 -burst-bad-loss NaN", "-burst-bad-loss: NaN"},
		{"negative integer knob", "-ir-window -1", "-ir-window: negative value -1"},
		{"retry budget above its cap", "-retries 17", "-retries: 17 exceeds maximum 16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(t, strings.Fields(tc.args)...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%q rejected: %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("%q accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%q: error %q, want substring %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCheckRatesBurstBound pins the burst-loss bound at 1.0 rather than
// faults.MaxRate: a deep fade may kill every frame, so 1.0 must pass
// where the Bernoulli knobs stop at 0.95.
func TestCheckRatesBurstBound(t *testing.T) {
	if err := checkFlags(t, "-burst-bad-loss", "1"); err != nil {
		t.Fatalf("burst-bad-loss 1.0 rejected: %v", err)
	}
	if err := checkFlags(t, "-burst-bad-loss", "1.01"); err == nil {
		t.Fatal("burst-bad-loss 1.01 accepted, want error")
	}
}

// TestEveryKnobHasOneFlag: every exported field of the per-layer knob
// structs, of faults.Profile and every world knob of sim.Params is the
// target of exactly one registered flag — setting that flag, and no other,
// changes it — or is one of the two halves of -corrupt, written by hand.
func TestEveryKnobHasOneFlag(t *testing.T) {
	byHand := map[string]bool{"ReplyTruncate": true, "ReplyCorrupt": true}
	world := []string{"AreaMiles", "DurationHours", "TxRangeMeters", "CacheSize", "K", "WindowPct",
		"Kind", "CachePolicy"}
	flagValue := reflect.TypeOf((*flag.Value)(nil)).Elem()

	fs, c := newCLI()
	var knobs []knob.Knob
	knob.Walk(&c.knobs, func(k knob.Knob) { knobs = append(knobs, k) })
	values := func() []any {
		out := make([]any, len(knobs))
		for i, k := range knobs {
			out[i] = k.Value.Interface()
		}
		return out
	}
	flagOf := map[string]string{} // field → flag, for every generated flag
	seen := map[string]string{}   // flag → field
	for i, k := range knobs {
		if k.Flag == "" {
			continue
		}
		if prev, dup := seen[k.Flag]; dup {
			t.Errorf("flag -%s names both %s and %s", k.Flag, prev, k.Field)
		}
		seen[k.Flag], flagOf[k.Field] = k.Field, k.Flag
		if fs.Lookup(k.Flag) == nil {
			t.Errorf("%s: flag -%s is not registered", k.Field, k.Flag)
			continue
		}
		value := "7" // no default is 7
		switch {
		case k.Value.Kind() == reflect.Bool:
			value = "true"
			if k.Value.Bool() {
				value = "false"
			}
		case k.Value.Addr().Type().Implements(flagValue):
			// An enum: the spelling of its first non-zero constant.
			one := reflect.New(k.Value.Type()).Elem()
			one.SetInt(1)
			value = one.Interface().(fmt.Stringer).String()
		}
		before := values()
		if err := fs.Set(k.Flag, value); err != nil {
			t.Fatalf("-%s %s: %v", k.Flag, value, err)
		}
		for j, now := range values() {
			if moved := now != before[j]; moved != (j == i) {
				t.Errorf("-%s %s: %s moved = %v", k.Flag, value, knobs[j].Field, moved)
			}
		}
	}

	for _, typ := range []reflect.Type{
		reflect.TypeOf(sim.LayerKnobs{}), reflect.TypeOf(faults.Profile{}),
	} {
		var fields func(reflect.Type)
		fields = func(typ reflect.Type) {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				switch {
				case f.Anonymous:
					fields(f.Type)
				case !f.IsExported():
				case byHand[f.Name]:
					if flagOf[f.Name] != "" {
						t.Errorf("%s.%s is on the by-hand list and has flag -%s", typ, f.Name, flagOf[f.Name])
					}
				case flagOf[f.Name] == "":
					t.Errorf("%s.%s has no flag: tag it `flag:\"…\" usage:\"…\"`", typ, f.Name)
				}
			}
		}
		fields(typ)
	}
	for _, f := range world {
		if flagOf[f] == "" {
			t.Errorf("sim.Params.%s has no flag", f)
		}
	}
}

// TestReadmeMatrixFlagsExist: every `-flag` the README's robustness matrix
// names is a registered flag.
func TestReadmeMatrixFlagsExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, matrix, ok := strings.Cut(string(readme), "### Robustness flag matrix")
	if !ok {
		t.Fatal("README.md has no \"Robustness flag matrix\" section")
	}
	matrix, _, _ = strings.Cut(matrix, "\n\nAll layers stack")
	fs, _ := newCLI()
	names := regexp.MustCompile("[`( ]-([a-z][a-z-]*)").FindAllStringSubmatch(matrix, -1)
	if len(names) < 30 {
		t.Fatalf("found only %d flag tokens in the matrix", len(names))
	}
	for _, m := range names {
		if fs.Lookup(m[1]) == nil {
			t.Errorf("README matrix names -%s, which lbsq-sim does not register", m[1])
		}
	}
}
