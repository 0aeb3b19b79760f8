package pattern

import (
	"bytes"
	"testing"
)

// FuzzGeneralize checks the core generalization invariants on arbitrary
// input: no panics, FromRuns/AppendRuns/HashRuns agree with Generalize, and
// the pattern is empty iff the value is.
func FuzzGeneralize(f *testing.F) {
	for _, seed := range []string{
		"", "2011-01-01", "ITF $50.000 WTA", "1,000", "(425) 555-0143",
		"日本語 mixed ASCII 123", "\x00\xff weird bytes", "    ", `\D[4]`,
	} {
		f.Add(seed, uint8(0))
	}
	langs := All()
	f.Fuzz(func(t *testing.T, s string, id uint8) {
		l := langs[int(id)%len(langs)]
		p := l.Generalize(s)
		rs := Encode(s)
		if got := l.FromRuns(rs); got != p {
			t.Fatalf("FromRuns %q != Generalize %q for %q", got, p, s)
		}
		// AppendRuns keeps dst's prefix and appends exactly the pattern,
		// whether it appends in place or must grow a full slice.
		prefix := []byte("prefix\\")
		for _, dst := range [][]byte{prefix[:len(prefix):len(prefix)], append(make([]byte, 0, len(prefix)+len(p)+8), prefix...)} {
			out := l.AppendRuns(dst, rs)
			if !bytes.Equal(out[:len(prefix)], prefix) || string(out[len(prefix):]) != p {
				t.Fatalf("AppendRuns(%q, cap %d) = %q, want the prefix then %q", prefix, cap(dst), out, p)
			}
		}
		if l.HashRuns(rs) != Hash64(p) {
			t.Fatalf("HashRuns mismatch for %q", s)
		}
		if (p == "") != (s == "") {
			t.Fatalf("emptiness mismatch: %q → %q", s, p)
		}
	})
}
