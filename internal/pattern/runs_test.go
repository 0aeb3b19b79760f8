package pattern

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeBasic(t *testing.T) {
	rs := Encode("Ab-12")
	want := Runs{
		{Cat: CatUpper, Text: "A", N: 1},
		{Cat: CatLower, Text: "b", N: 1},
		{Cat: CatSymbol, Text: "-", N: 1},
		{Cat: CatDigit, Text: "12", N: 2},
	}
	if len(rs) != len(want) {
		t.Fatalf("Encode(Ab-12) = %v", rs)
	}
	for i := range rs {
		if rs[i] != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, rs[i], want[i])
		}
	}
	if Encode("") != nil {
		t.Error("Encode(\"\") should be nil")
	}
}

func TestEncodeMultibyte(t *testing.T) {
	rs := Encode("Café12")
	// C-a-f-é are Upper,Lower (a,f,é all lower): runs = [U:1, l:3, D:2].
	if len(rs) != 3 || rs[1].N != 3 || rs[1].Text != "afé" || rs[2].Text != "12" {
		t.Errorf("Encode(Café12) = %+v", rs)
	}
}

// Property: FromRuns(Encode(v)) is identical to Generalize(v) for every
// candidate language. This licenses the encode-once optimization used by
// the statistics builder.
func TestFromRunsMatchesGeneralize(t *testing.T) {
	langs := All()
	f := func(s string, id uint16) bool {
		l := langs[int(id)%len(langs)]
		return l.FromRuns(Encode(s)) == l.Generalize(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// And on a few crafted values across all languages.
	for _, v := range []string{"", "2011-01-01", "ITF $50.000 WTA", "1,000", "(425) 555-0143", "  x  ", "ABCdef123!!!"} {
		rs := Encode(v)
		for _, l := range langs {
			if got, want := l.FromRuns(rs), l.Generalize(v); got != want {
				t.Fatalf("lang %v value %q: FromRuns %q != Generalize %q", l, v, got, want)
			}
		}
	}
}

// Property: HashRuns is exactly the FNV-1a hash of the rendered pattern,
// for every candidate language, also when the pattern outgrows the stack
// buffer.
func TestHashRunsMatchesFromRuns(t *testing.T) {
	langs := All()
	f := func(s string, id uint16) bool {
		l := langs[int(id)%len(langs)]
		rs := Encode(s)
		return l.HashRuns(rs) == Hash64(l.FromRuns(rs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	for _, v := range []string{"", "2011-01-01", "x", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1"} {
		rs := Encode(v)
		for _, l := range langs {
			if l.HashRuns(rs) != Hash64(l.FromRuns(rs)) {
				t.Fatalf("hash mismatch for %q under %v", v, l)
			}
		}
	}
}

func BenchmarkHashRuns(b *testing.B) {
	rs := Encode("ITF $50.000 WTA International 2011-01-02")
	l := L2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.HashRuns(rs)
	}
}

func BenchmarkFromRuns(b *testing.B) {
	rs := Encode("ITF $50.000 WTA International 2011-01-02")
	l := L2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.FromRuns(rs)
	}
}

// TestRunCounts: a run of one character renders bare and a longer one
// with its decimal length, on both sides of the one-digit fast path.
func TestRunCounts(t *testing.T) {
	for _, n := range []int{1, 2, 9, 10, 11, 99, 100, 12345} {
		want := `\D`
		if n > 1 {
			want += "[" + strconv.Itoa(n) + "]"
		}
		if got := L2().Generalize(strings.Repeat("7", n)); got != want {
			t.Errorf("run of %d digits renders %q, want %q", n, got, want)
		}
	}
}

// TestRenderAllocs: FromRuns allocates only its result for a pattern that
// fits the stack buffer, and HashRuns allocates nothing.
func TestRenderAllocs(t *testing.T) {
	rs, l := Encode("ITF $50.000 WTA International 2011-01-02"), L2()
	if n := testing.AllocsPerRun(100, func() { l.FromRuns(rs) }); n != 1 {
		t.Errorf("FromRuns allocates %v times per call, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.HashRuns(rs) }); n != 0 {
		t.Errorf("HashRuns allocates %v times per call, want 0", n)
	}
}
