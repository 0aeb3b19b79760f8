package stats

import (
	"bytes"
	"testing"

	"repro/internal/pattern"
)

// FuzzLanguageStatsDecode: a statistics blob either fails to decode or
// re-encodes to exactly its input, and what decodes merges (into empty
// statistics, then again through the ID remapping) and canonicalizes
// without panicking.
func FuzzLanguageStatsDecode(f *testing.F) {
	ls := NewLanguageStats(pattern.L1(), DefaultSmoothing)
	ls.AddColumn([]string{"2011-06-20", "abc", "x1"})
	ls.AddColumn([]string{"2011-06-21", "abd"})
	seed, err := ls.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got LanguageStats
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("re-encoding differs from the decoded input")
		}
		merged := NewLanguageStats(got.Language(), got.Smoothing())
		for i := 0; i < 2; i++ {
			if err := merged.Merge(&got); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Canonicalize(); err != nil {
			t.Fatal(err)
		}
	})
}
