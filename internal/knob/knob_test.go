package knob

import (
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

type Inner struct {
	Rate  float64 `flag:"rate" max:"0.5" usage:"a rate"`
	Depth int     `flag:"depth" usage:"a depth"`
	Half  float64 `flag:"" max:"1"` // checked, no flag
	Plain float64 // not a knob
}

type outer struct {
	Step  float64 `flag:"step" usage:"a step"`
	On    bool    `flag:"on" usage:"a switch"`
	Since int64   `flag:"since" usage:"an epoch"`
	Name  string
	Inner `layer:"the Inner layer"`
	Named Inner `layer:"the named layer"`
}

func TestWalkOrderLayersAndTags(t *testing.T) {
	var got []string
	Walk(&outer{}, func(k Knob) { got = append(got, k.Layer+"/"+k.Field+"/"+k.Flag) })
	want := []string{"/Step/step", "/On/on", "/Since/since",
		"the Inner layer/Rate/rate", "the Inner layer/Depth/depth", "the Inner layer/Half/",
		"the named layer/Rate/rate", "the named layer/Depth/depth", "the named layer/Half/"}
	if !slices.Equal(got, want) {
		t.Fatalf("walk = %q, want %q", got, want)
	}
	var max float64
	Walk(&outer{}, func(k Knob) {
		if k.Layer == "the Inner layer" && k.Field == "Rate" {
			max = k.Max
		}
	})
	if max != 0.5 {
		t.Fatalf("Rate max = %v, want 0.5", max)
	}
}

// level is an enum knob: its pointer is a flag.Value.
type level int

func (l level) String() string { return [...]string{"low", "high"}[l] }

func (l *level) Set(s string) error {
	switch s {
	case "low":
		*l = 0
	case "high":
		*l = 1
	default:
		return fmt.Errorf("unknown level %q", s)
	}
	return nil
}

func TestBindDefaultsAndParses(t *testing.T) {
	v := struct {
		Step  float64 `flag:"step" usage:"a step"`
		On    bool    `flag:"on" usage:"a switch"`
		N     int     `flag:"n" usage:"a count"`
		At    int64   `flag:"at" usage:"an epoch"`
		Level level   `flag:"level" usage:"a level"`
		Half  float64 `flag:"" max:"1"`
	}{Step: 10}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Bind(fs, &v)
	if f := fs.Lookup("step"); f == nil || f.DefValue != "10" || f.Usage != "a step" {
		t.Fatalf("step flag = %+v", f)
	}
	if f := fs.Lookup("level"); f == nil || f.DefValue != "low" {
		t.Fatalf("level flag = %+v", f)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 5 {
		t.Fatalf("%d flags registered, want 5 (the empty name registers none)", n)
	}
	if err := fs.Parse([]string{"-step", "2.5", "-on", "-n", "3", "-at", "9", "-level", "high"}); err != nil {
		t.Fatal(err)
	}
	if v.Step != 2.5 || !v.On || v.N != 3 || v.At != 9 || v.Level != 1 {
		t.Fatalf("parsed into %+v", v)
	}
	if err := fs.Parse([]string{"-level", "medium"}); err == nil || !strings.Contains(err.Error(), "-level: unknown level") {
		t.Fatalf("bad enum value: error %v", err)
	}
}

func TestCheck(t *testing.T) {
	for _, c := range []struct {
		v    outer
		want string // substring; "" = passes
	}{
		{outer{}, ""},
		{outer{Step: 1e9, Inner: Inner{Rate: 0.5, Half: 1}, Name: "x"}, ""},
		{outer{Inner: Inner{Plain: -1}}, ""},
		{outer{Step: math.NaN()}, "-step: NaN is not a value (Step)"},
		{outer{Step: math.Inf(1)}, "-step: value must be finite (Step)"},
		{outer{Since: -1}, "-since: negative value -1 (Since)"},
		{outer{Inner: Inner{Rate: 0.51}}, "-rate: 0.51 exceeds maximum 0.5 (Rate)"},
		{outer{Named: Inner{Depth: -2}}, "-depth: negative value -2 (Depth)"},
		{outer{Inner: Inner{Half: 1.5}}, "Half: 1.5 exceeds maximum 1"},
		{outer{Step: -1, Inner: Inner{Rate: 9}}, "-step: negative value -1"}, // the first one
	} {
		err := Check(&c.v)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", c.v, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want %q", c.v, err, c.want)
		}
	}
}

func TestCopyMovesKnobsOnly(t *testing.T) {
	src := outer{Step: 1, On: true, Since: 2, Name: "src", Inner: Inner{Rate: 3, Depth: 4, Half: 5, Plain: 6}}
	dst := outer{Name: "dst", Inner: Inner{Plain: 7}, Named: Inner{Rate: 8}}
	Copy(&dst, &src)
	want := src
	want.Name, want.Plain = "dst", 7
	want.Named.Rate = 8 // zero in src: dst keeps its own value
	if dst != want {
		t.Fatalf("copy = %+v, want %+v", dst, want)
	}
}

func TestBadMaxTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a malformed max tag walked quietly")
		}
	}()
	Walk(&struct {
		X float64 `flag:"x" max:"lots"`
	}{}, func(Knob) {})
}
