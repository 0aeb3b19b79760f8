package stats

import (
	"testing"

	"repro/internal/pattern"
)

func TestSetSmoothingChangesScores(t *testing.T) {
	ls := buildDateStats(t, 0)
	a, b := "2011-01-01", "2011/01/01"
	raw := ls.NPMIValues(a, b)
	ls.SetSmoothing(0.2)
	if ls.Smoothing() != 0.2 {
		t.Fatal("Smoothing not updated")
	}
	smoothed := ls.NPMIValues(a, b)
	if smoothed <= raw {
		t.Errorf("smoothing should lift a zero-co-occurrence pair: %v → %v", raw, smoothed)
	}
}

func TestNPMIRunsLOO(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	iso := pattern.Encode("2011-01-01")
	year := pattern.Encode("2005")
	plain := ls.NPMIRuns(iso, year)

	// Same-column discount removes one co-occurrence and one occurrence of
	// each marginal; with high counts the effect must be marginal (it can
	// shift in either direction since both counts shrink).
	loo := ls.NPMIRunsLOO(iso, year, true)
	if d := loo - plain; d > 0.05 || d < -0.05 {
		t.Errorf("LOO moved a well-supported pair too much: %v vs %v", loo, plain)
	}

	// Identical patterns stay perfectly compatible under LOO.
	if got := ls.NPMIRunsLOO(iso, pattern.Encode("1918-01-01"), true); got != 1 {
		t.Errorf("identical-pattern LOO = %v", got)
	}

	// A value pair seen in exactly one shared column must drop to the
	// no-evidence score when that column is discounted.
	one := NewLanguageStats(pattern.Crude(), 0)
	one.AddColumn([]string{"aa-bb", "11:22"})
	one.AddColumn([]string{"aa-bb", "zz-yy"})
	one.AddColumn([]string{"11:22", "33:44"})
	u, v := pattern.Encode("aa-bb"), pattern.Encode("11:22")
	if got := one.NPMIRuns(u, v); got <= -1 {
		t.Fatalf("precondition: pair should co-occur, got %v", got)
	}
	if got := one.NPMIRunsLOO(u, v, true); got != -1 {
		t.Errorf("discounted single co-occurrence should be -1, got %v", got)
	}

	// Empty statistics are neutral.
	empty := NewLanguageStats(pattern.Crude(), 0.1)
	if got := empty.NPMIRunsLOO(u, v, false); got != 0 {
		t.Errorf("empty stats LOO = %v", got)
	}
}

func TestPairStoreEntriesAndSketchCopy(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	entries := ls.PairStoreEntries()
	if entries <= 0 {
		t.Fatalf("exact store entries = %d", entries)
	}
	cp, err := ls.SketchCopy(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cp.PairStoreEntries() != -1 {
		t.Error("sketch copy should not track entries")
	}
	// Original still exact, still serializable.
	if ls.PairStoreEntries() != entries {
		t.Error("SketchCopy mutated the receiver")
	}
	if _, err := ls.MarshalBinary(); err != nil {
		t.Errorf("original no longer serializable: %v", err)
	}
	if _, err := cp.MarshalBinary(); err == nil {
		t.Error("sketch copies must refuse to serialize")
	}
	if _, err := cp.SketchCopy(0.5, 4); err == nil {
		t.Error("double compression must error")
	}
	// Counts remain plausible on the heavy pair.
	iso := pattern.Crude().Generalize("2011-01-01")
	year := pattern.Crude().Generalize("1999")
	if got := cp.PairCount(iso, year); got > 50 {
		t.Errorf("sketch pair count %d exceeds marginal clamp", got)
	}
}

func TestPatternCountUnknown(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	if ls.PatternCount("never-seen-pattern") != 0 {
		t.Error("unknown pattern should count 0")
	}
	if ls.PairCount("never-seen", `\D[4]`) != 0 {
		t.Error("unknown pair should count 0")
	}
}
