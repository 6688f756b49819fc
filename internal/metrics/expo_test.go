package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestExpositionRoundTrip pins the text-format contract: WriteText
// followed by ParseText reproduces exactly the sample list Samples()
// derives from the snapshot — names, le labels, cumulative bucket
// counts, sums, and counts.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	fillRegistry(r)
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.Samples()
	if !reflect.DeepEqual(parsed, want) {
		t.Fatalf("round trip mismatch:\nparsed %d samples, want %d\nparsed: %+v\nwant:   %+v",
			len(parsed), len(want), parsed, want)
	}
}

// TestExpositionCumulativeBuckets verifies bucket lines are cumulative
// and terminated by the +Inf bucket equal to the total count.
func TestExpositionCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", "slots", []float64{0, 1, 2})
	h.Observe(0)
	h.Observe(1)
	h.Observe(1)
	h.Observe(5) // overflow
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, line := range []string{
		`lat_bucket{le="0"} 1`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		`lat_sum 7`,
		`lat_count 4`,
		`# TYPE lat histogram`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		"too many fields here\n",
		"name notanumber\n",
		"name{le=\"1\" 3\n",   // unbalanced braces
		"name{job=\"x\"} 3\n", // unsupported label
		"name}{le=\"1\"} 3\n", // brace order
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseText accepted %q", bad)
		}
	}
}

func TestParseTextSkipsCommentsAndBlank(t *testing.T) {
	in := "# HELP x y\n\n# TYPE x counter\nx 3\n"
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Name != "x" || samples[0].Value != 3 {
		t.Fatalf("samples %+v", samples)
	}
}

func TestParseTextInf(t *testing.T) {
	samples, err := ParseText(strings.NewReader(`h_bucket{le="+Inf"} 2` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].LE != "+Inf" || samples[0].Value != 2 {
		t.Fatalf("samples %+v", samples)
	}
}

func TestFormatFloat(t *testing.T) {
	if formatFloat(math.Inf(1)) != "+Inf" {
		t.Fatal("infinity formatting")
	}
	if formatFloat(0.25) != "0.25" {
		t.Fatalf("0.25 formatted as %q", formatFloat(0.25))
	}
}

func TestHandlerServesPublishedSnapshot(t *testing.T) {
	r := NewRegistry()
	var hits int64
	r.Counter("hits", "", func() int64 { return hits })
	h := Handler(r)

	// No snapshot published yet: placeholder comment, no samples.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "# no snapshot published yet") {
		t.Fatalf("unpublished body %q", rec.Body.String())
	}

	hits = 4
	r.Publish()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("content type %q", got)
	}
	if !strings.Contains(rec.Body.String(), "hits 4\n") {
		t.Fatalf("published body %q", rec.Body.String())
	}
}
