package repair

import "testing"

func TestReformatDate(t *testing.T) {
	col := []string{"2011-01-02", "2012-05-14", "2013-11-30", "2011/06/20"}
	s, ok := Suggest(col, "2011/06/20")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Proposed != "2011-06-20" || s.Rule != "reformat-date" {
		t.Errorf("suggestion = %+v", s)
	}
	if s.Confidence != 1 {
		t.Errorf("confidence = %v", s.Confidence)
	}
}

func TestReformatTextualDate(t *testing.T) {
	col := []string{"January 2, 2011", "May 14, 2012", "12/07/2014", "August 23, 2013"}
	s, ok := Suggest(col, "12/07/2014")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Proposed != "December 7, 2014" {
		t.Errorf("proposed %q", s.Proposed)
	}
}

func TestStripNoise(t *testing.T) {
	cases := []struct {
		col      []string
		flagged  string
		proposed string
	}{
		{[]string{"1963", "2008", "1976", "2013."}, "2013.", "2013"},
		{[]string{"1963", "2008", "1976", " 1999"}, " 1999", "1999"},
		{[]string{"2011.01.02", "2011.02.14", "2011..03.08"}, "2011..03.08", "2011.03.08"},
		{[]string{"Quarterly Report", "Annual  Summary", "Budget Overview"}, "Annual  Summary", "Annual Summary"},
	}
	for _, c := range cases {
		s, ok := Suggest(c.col, c.flagged)
		if !ok {
			t.Errorf("no suggestion for %q", c.flagged)
			continue
		}
		if s.Proposed != c.proposed || s.Rule != "strip-noise" {
			t.Errorf("Suggest(%q) = %+v, want %q", c.flagged, s, c.proposed)
		}
	}
}

func TestNormalizeNumber(t *testing.T) {
	// Plain-integer column: drop the comma.
	col := []string{"1200", "450", "98000", "1,000"}
	s, ok := Suggest(col, "1,000")
	if !ok || s.Proposed != "1000" || s.Rule != "normalize-number" {
		t.Errorf("drop-comma: %+v ok=%v", s, ok)
	}
	// Comma column: insert separators.
	col2 := []string{"1,200", "450,000", "98,000", "1234567"}
	s2, ok := Suggest(col2, "1234567")
	if !ok || s2.Proposed != "1,234,567" {
		t.Errorf("add-comma: %+v ok=%v", s2, ok)
	}
}

func TestReformatPhone(t *testing.T) {
	col := []string{"(425) 555-0143", "(206) 555-0177", "(360) 555-0102", "509.555.0156"}
	s, ok := Suggest(col, "509.555.0156")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Proposed != "(509) 555-0156" || s.Rule != "reformat-phone" {
		t.Errorf("suggestion = %+v", s)
	}
	// And the reverse direction.
	col2 := []string{"425-555-0143", "206-555-0177", "(360) 555-0102", "509-555-0156"}
	s2, ok := Suggest(col2, "(360) 555-0102")
	if !ok || s2.Proposed != "360-555-0102" {
		t.Errorf("reverse: %+v ok=%v", s2, ok)
	}
}

func TestConvertUnit(t *testing.T) {
	col := []string{"72 kg", "81 kg", "64 kg", "154 lbs"}
	s, ok := Suggest(col, "154 lbs")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Rule != "convert-unit" || s.Proposed != "70 kg" {
		t.Errorf("suggestion = %+v", s)
	}
	// Fahrenheit into a Celsius column, preserving decimals.
	col2 := []string{"21.5 C", "19.0 C", "23.4 C", "74.3 F"}
	s2, ok := Suggest(col2, "74.3 F")
	if !ok || s2.Proposed != "23.5 C" {
		t.Errorf("temp: %+v ok=%v", s2, ok)
	}
}

func TestNoSuggestionForPlaceholders(t *testing.T) {
	for _, flagged := range []string{"-", "N/A", "TBD", "?"} {
		col := []string{"3-2", "1-0", "4-4", flagged}
		if s, ok := Suggest(col, flagged); ok && flagged != "-" {
			t.Errorf("placeholder %q got suggestion %+v", flagged, s)
		}
	}
}

func TestNoSuggestionDegenerate(t *testing.T) {
	if _, ok := Suggest(nil, "x"); ok {
		t.Error("empty column")
	}
	if _, ok := Suggest([]string{"x", "x"}, "x"); ok {
		t.Error("flagged value is the whole column")
	}
	if _, ok := Suggest([]string{"a", "b"}, ""); ok {
		t.Error("empty flagged value")
	}
}

func TestHelpers(t *testing.T) {
	if got := commaSeparate("1234567"); got != "1,234,567" {
		t.Errorf("commaSeparate = %q", got)
	}
	if got := commaSeparate("-42000"); got != "-42,000" {
		t.Errorf("negative = %q", got)
	}
	if got := commaSeparate("12"); got != "12" {
		t.Errorf("short = %q", got)
	}
	if got := collapseDoubledSymbols("a--b  c"); got != "a-b c" {
		t.Errorf("collapse = %q", got)
	}
	if got := collapseDoubledSymbols("aabb"); got != "aabb" {
		t.Errorf("letters must not collapse: %q", got)
	}
	if got := renderLike(70.4536, "81"); got != "70" {
		t.Errorf("renderLike int = %q", got)
	}
	if got := renderLike(23.5111, "19.0"); got != "23.5" {
		t.Errorf("renderLike dec = %q", got)
	}
}

// TestSuggestTieIsDeterministic: two formats tie for dominance, so the
// one whose first value comes earliest in the column wins, on every call.
func TestSuggestTieIsDeterministic(t *testing.T) {
	col := []string{"2011-06-20", "06/21/2011", "2011-06-22", "06/23/2011", "2011-06-24."}
	type answer struct {
		s  Suggestion
		ok bool
	}
	seen := map[answer]int{}
	for i := 0; i < 1000; i++ {
		s, ok := Suggest(col, "2011-06-24.")
		seen[answer{s, ok}]++
	}
	if len(seen) != 1 {
		t.Fatalf("1000 calls gave %d different answers: %v", len(seen), seen)
	}
	for a := range seen {
		if !a.ok || a.s.Proposed != "2011-06-24" || a.s.Rule != "strip-noise" {
			t.Fatalf("Suggest = %+v ok=%t, want strip-noise to the first-seen ISO format", a.s, a.ok)
		}
	}
}
