// Package knob turns tagged struct fields into everything a configuration
// knob needs besides its meaning: a command-line flag, a range check and a
// line of help. A knob is one exported bool, int, int64 or float64 field,
// or one whose pointer is a flag.Value (an enum with String and Set),
// declared as
//
//	IRWindow int `json:"ir_window,omitempty" flag:"ir-window" usage:"epochs each invalidation report retains"`
//
// where `flag` names the flag, `usage` is its help text and an optional
// `max` bounds it from above. Every numeric knob must be finite and
// non-negative; an empty flag name (`flag:""`) keeps that check for a field
// whose flag is written by hand. Exported struct-typed fields (embedded or
// named) are descended into; a `layer` tag on such a field titles the knobs
// below it in the help. Fields without a `flag` tag are not knobs and are
// left alone.
package knob

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// Knob is one tagged field of a walked struct.
type Knob struct {
	Field string  // Go field name
	Flag  string  // flag name, without the dash; "" when checked only
	Usage string  // help text
	Max   float64 // inclusive upper bound; 0 means none
	Layer string  // nearest enclosing `layer` tag, "" at the top level
	// Value is the addressable field itself.
	Value reflect.Value
}

// Walk calls fn for every knob reachable from the struct v points to, in
// declaration order.
func Walk(v any, fn func(Knob)) {
	walk(reflect.ValueOf(v).Elem(), "", fn)
}

func walk(s reflect.Value, layer string, fn func(Knob)) {
	for i := 0; i < s.NumField(); i++ {
		f := s.Type().Field(i)
		if name, ok := f.Tag.Lookup("flag"); ok {
			k := Knob{Field: f.Name, Flag: name, Usage: f.Tag.Get("usage"), Layer: layer, Value: s.Field(i)}
			if m := f.Tag.Get("max"); m != "" {
				max, err := strconv.ParseFloat(m, 64)
				if err != nil {
					panic(fmt.Sprintf("knob: %s.%s: max tag %q: %v", s.Type(), f.Name, m, err))
				}
				k.Max = max
			}
			fn(k)
		} else if f.Type.Kind() == reflect.Struct && f.IsExported() {
			below := layer
			if l, ok := f.Tag.Lookup("layer"); ok {
				below = l
			}
			walk(s.Field(i), below, fn)
		}
	}
}

// Bind registers one flag per named knob of *v on fs; a flag's default is
// the value its field holds now, and parsing writes straight into the field.
func Bind(fs *flag.FlagSet, v any) {
	Walk(v, func(k Knob) {
		if k.Flag == "" {
			return
		}
		switch p := k.Value.Addr().Interface().(type) {
		case flag.Value:
			fs.Var(p, k.Flag, k.Usage)
		case *bool:
			fs.BoolVar(p, k.Flag, *p, k.Usage)
		case *int:
			fs.IntVar(p, k.Flag, *p, k.Usage)
		case *int64:
			fs.Int64Var(p, k.Flag, *p, k.Usage)
		case *float64:
			fs.Float64Var(p, k.Flag, *p, k.Usage)
		default:
			panic(fmt.Sprintf("knob: -%s: unsupported field type %s", k.Flag, k.Value.Type()))
		}
	})
}

// Copy sets every knob of *dst to the value it has in *src (two values of
// one struct type) unless that value is zero: a knob left at zero, like a
// field that is not a knob, keeps what dst had.
func Copy(dst, src any) {
	var vals []reflect.Value
	Walk(src, func(k Knob) { vals = append(vals, k.Value) })
	i := 0
	Walk(dst, func(k Knob) {
		if !vals[i].IsZero() {
			k.Value.Set(vals[i])
		}
		i++
	})
}

// Check returns an error naming the first numeric knob of *v, by flag and
// by field, whose value is NaN, infinite, negative or above its maximum.
func Check(v any) error {
	var err error
	Walk(v, func(k Knob) {
		if err != nil {
			return
		}
		var x float64
		switch {
		case k.Value.CanInt():
			x = float64(k.Value.Int())
		case k.Value.CanFloat():
			x = k.Value.Float()
		default:
			return
		}
		name, field := "-"+k.Flag, " ("+k.Field+")"
		if k.Flag == "" {
			name, field = k.Field, ""
		}
		switch {
		case math.IsNaN(x):
			err = fmt.Errorf("%s: NaN is not a value%s", name, field)
		case math.IsInf(x, 0):
			err = fmt.Errorf("%s: value must be finite%s", name, field)
		case x < 0:
			err = fmt.Errorf("%s: negative value %v%s", name, x, field)
		case k.Max > 0 && x > k.Max:
			err = fmt.Errorf("%s: %v exceeds maximum %v%s", name, x, k.Max, field)
		}
	})
	return err
}
