package core

import (
	"math"
	"strings"
	"testing"
)

// FuzzDetectColumn checks the invariants of DetectColumn's findings on
// arbitrary columns (newline-separated cells) over the fixture ensemble:
// confidences lie in [0,1] and are sorted descending, Index is Value's
// first row, Partner is another value of the column, and on columns
// within the distinct-value cap reversing the rows keeps the flagged set
// and every confidence up to floating-point summation order.
func FuzzDetectColumn(f *testing.F) {
	det, err := NewDetector(fixtureCalibrations(f))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"2011-01-01\n2012-03-04\n1999-12-31\n2011/01/01",
		"2011-01-01\n\n2012-03-04\n\n2011/01/01\n2011/01/01",
		"July-01\nMarch-02\n1999\n2005\nApril-03",
		"1999\n2005\n2011-01-01\n2011/01/01\n1999\nJuly-01\n2012/03/04",
		"a\nb\na\n\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		values := strings.Split(data, "\n")
		if len(values) > 400 {
			values = values[:400]
		}
		findings := det.DetectColumn(values)
		first := map[string]int{}
		for i := len(values) - 1; i >= 0; i-- {
			first[values[i]] = i
		}
		for k, fd := range findings {
			if !(fd.Confidence >= 0 && fd.Confidence <= 1) {
				t.Fatalf("finding %+v: confidence outside [0,1]", fd)
			}
			if k > 0 && fd.Confidence > findings[k-1].Confidence {
				t.Fatalf("findings not sorted by descending confidence: %+v", findings)
			}
			if i, ok := first[fd.Value]; !ok || i != fd.Index {
				t.Fatalf("finding %+v: Index is not the value's first row (%d)", fd, i)
			}
			if _, ok := first[fd.Partner]; !ok || fd.Partner == fd.Value || fd.Partner == "" {
				t.Fatalf("finding %+v: Partner is not another value of the column", fd)
			}
		}

		if len(NonEmpty(Tabulate(values))) > MaxDistinct {
			return
		}
		rev := make([]string, len(values))
		for i, v := range values {
			rev[len(values)-1-i] = v
		}
		conf := map[string]float64{}
		for _, fd := range findings {
			conf[fd.Value] = fd.Confidence
		}
		back := det.DetectColumn(rev)
		if len(back) != len(findings) {
			t.Fatalf("%d findings, %d after reversing the rows", len(findings), len(back))
		}
		for _, fd := range back {
			c, ok := conf[fd.Value]
			if !ok || math.Abs(c-fd.Confidence) > 1e-9 {
				t.Fatalf("reversed rows flag %+v; forward confidence %v (flagged %v)", fd, c, ok)
			}
		}
	})
}
