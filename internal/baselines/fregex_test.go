package baselines

import "testing"

// TestBuiltinTypeExamples: every predefined type must accept a canonical
// example and reject a canonical counterexample.
func TestBuiltinTypeExamples(t *testing.T) {
	examples := map[string][2]string{
		"integer":    {"1,234", "12.5"},
		"decimal":    {"1,234.56", "abc"},
		"percentage": {"12.5%", "12.5"},
		"currency":   {"$1,234.56", "1234USD%"},
		"date-ymd":   {"2011-01-02", "01-02-2011"},
		"date-dmy":   {"01/02/2011", "2011/01/02"},
		"date-text":  {"January 2, 2011", "2011-01-02"},
		"time":       {"13:45:01", "13h45"},
		"email":      {"a@b.com", "a b@c.com"},
		"url":        {"https://x.io/y", "x.io"},
		"ip-address": {"10.0.0.1", "10.0.0"},
		"phone":      {"(425) 555-0143", "5550143"},
		"zip":        {"98052-1234", "9805"},
		"boolean":    {"Yes", "maybe"},
	}
	for _, bt := range builtinTypes {
		ex, ok := examples[bt.name]
		if !ok {
			t.Errorf("no example for builtin type %q", bt.name)
			continue
		}
		if !bt.re.MatchString(ex[0]) {
			t.Errorf("type %q rejects its example %q", bt.name, ex[0])
		}
		if bt.re.MatchString(ex[1]) {
			t.Errorf("type %q accepts its counterexample %q", bt.name, ex[1])
		}
	}
}

func TestDetectorNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range allPlusUnion() {
		if seen[d.Name()] {
			t.Errorf("duplicate detector name %q", d.Name())
		}
		seen[d.Name()] = true
	}
	if len(seen) != 11 {
		t.Errorf("expected 11 methods, got %d", len(seen))
	}
}

func TestFRegexNoTypeSilent(t *testing.T) {
	// Scores match no builtin type: F-Regex must stay silent even with an
	// obvious placeholder (the paper's criticism of fixed-type systems).
	f := &FRegex{}
	if got := f.Detect([]string{"3-2", "1-0", "4-4", "-", "2-1", "0-0", "5-3", "2-2"}); len(got) != 0 {
		t.Errorf("F-Regex flagged values outside its type system: %v", got)
	}
}

func TestFRegexMajorityThreshold(t *testing.T) {
	// Below the majority threshold, no type is assigned.
	f := &FRegex{MajorityThreshold: 0.9}
	col := []string{"a@b.com", "c@d.org", "nope", "also-nope", "x@y.net"}
	if got := f.Detect(col); len(got) != 0 {
		t.Errorf("60%% conformance should not pass a 0.9 threshold: %v", got)
	}
	f = &FRegex{MajorityThreshold: 0.5}
	if got := f.Detect(col); len(got) != 2 {
		t.Errorf("expected both non-emails flagged, got %v", got)
	}
}
