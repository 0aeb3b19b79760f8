package core

import "testing"

// TestHotPathCounters pins the accounting identities of the detection
// counters: DetectColumn on n distinct values adds n cells, n(n-1)/2
// pairs, and pairs × ensemble-size language evaluations.
func TestHotPathCounters(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	before := HotPath()

	values := []string{"2011-01-01", "2012-05-14", "2013-11-30", "2011/06/20"}
	det.DetectColumn(values)

	after := HotPath()
	if got := after.Values - before.Values; got < uint64(len(values)) {
		t.Errorf("values counter grew by %d, want >= %d", got, len(values))
	}
	wantPairs := uint64(len(values) * (len(values) - 1) / 2)
	if got := after.Pairs - before.Pairs; got < wantPairs {
		t.Errorf("pairs counter grew by %d, want >= %d", got, wantPairs)
	}
	wantLang := wantPairs * uint64(len(det.Languages()))
	if got := after.LanguagePairs - before.LanguagePairs; got < wantLang {
		t.Errorf("language-pairs counter grew by %d, want >= %d", got, wantLang)
	}

	mid := after
	det.ScorePair("72 kg", "154 lbs")
	final := HotPath()
	if final.Pairs == mid.Pairs {
		t.Error("ScorePair did not tick the pairs counter")
	}
}
