package pattern

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCategorize(t *testing.T) {
	cases := []struct {
		r    rune
		want Category
	}{
		{'A', CatUpper}, {'Z', CatUpper}, {'a', CatLower}, {'z', CatLower},
		{'0', CatDigit}, {'9', CatDigit}, {'-', CatSymbol}, {'.', CatSymbol},
		{' ', CatSymbol}, {'$', CatSymbol}, {'/', CatSymbol}, {',', CatSymbol},
		{'É', CatUpper}, {'é', CatLower}, {'˙', CatSymbol},
	}
	for _, c := range cases {
		if got := Categorize(c.r); got != c.want {
			t.Errorf("Categorize(%q) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestAllCount(t *testing.T) {
	all := All()
	if len(all) != 144 {
		t.Fatalf("len(All()) = %d, want 144", len(all))
	}
	if CandidateCount() != 144 {
		t.Fatalf("CandidateCount() = %d, want 144", CandidateCount())
	}
	seen := make(map[Language]bool)
	for i, l := range all {
		if l.ID != i {
			t.Errorf("language %d has ID %d", i, l.ID)
		}
		if !l.Valid() {
			t.Errorf("language %v is not a valid tree cut", l)
		}
		key := l
		key.ID = 0
		if seen[key] {
			t.Errorf("duplicate language %v", l)
		}
		seen[key] = true
	}
}

func TestByID(t *testing.T) {
	for _, l := range All() {
		if got := ByID(l.ID); got != l {
			t.Fatalf("ByID(%d) = %v, want %v", l.ID, got, l)
		}
	}
	if ByID(-1).ID != -1 || ByID(144).ID != -1 {
		t.Error("out-of-range ByID should return ID -1")
	}
}

func TestGeneralizeExample2(t *testing.T) {
	// Example 2 of the paper, L1 (symbols verbatim, rest to \A).
	l1 := L1()
	if got := l1.Generalize("2011-01-01"); got != `\A[4]-\A[2]-\A[2]` {
		t.Errorf("L1(2011-01-01) = %q", got)
	}
	if got := l1.Generalize("2011.01.02"); got != `\A[4].\A[2].\A[2]` {
		t.Errorf("L1(2011.01.02) = %q", got)
	}
	// Under L1, "2014-01" and "July-01" are indistinguishable.
	if a, b := l1.Generalize("2014-01"), l1.Generalize("July-01"); a != b {
		t.Errorf("L1 should not distinguish %q vs %q", a, b)
	}

	// L2 (letters to \L, digits to \D, symbols to \S).
	l2 := L2()
	if got := l2.Generalize("2011-01-01"); got != `\D[4]\S\D[2]\S\D[2]` {
		t.Errorf("L2(2011-01-01) = %q", got)
	}
	// Under L2, the two date separators are indistinguishable...
	if a, b := l2.Generalize("2011-01-01"), l2.Generalize("2011.01.02"); a != b {
		t.Errorf("L2 should not distinguish %q vs %q", a, b)
	}
	// ...but "2014-01" vs "July-01" are distinguished.
	if got := l2.Generalize("2014-01"); got != `\D[4]\S\D[2]` {
		t.Errorf("L2(2014-01) = %q", got)
	}
	if got := l2.Generalize("July-01"); got != `\L[4]\S\D[2]` {
		t.Errorf("L2(July-01) = %q", got)
	}
}

func TestGeneralizeLeafAndRoot(t *testing.T) {
	if got := Leaf().Generalize("Ab-3"); got != "Ab-3" {
		t.Errorf("Leaf() should be identity, got %q", got)
	}
	if got := Root().Generalize("Ab-3"); got != `\A[4]` {
		t.Errorf("Root(Ab-3) = %q", got)
	}
	if got := Root().Generalize(""); got != "" {
		t.Errorf("empty value should map to empty pattern, got %q", got)
	}
}

func TestGeneralizeCrude(t *testing.T) {
	g := Crude()
	if got := g.Generalize("Jan 5, 2011"); got != `\U\l[2] \D, \D[4]` {
		t.Errorf("Crude(Jan 5, 2011) = %q", got)
	}
	if got := g.Generalize("1,000"); got != `\D,\D[3]` {
		t.Errorf("Crude(1,000) = %q", got)
	}
}

func TestGeneralizeRunLengths(t *testing.T) {
	l2 := L2()
	cases := []struct{ in, want string }{
		{"1", `\D`},
		{"12", `\D[2]`},
		{"1a2", `\D\L\D`},
		{"  ", `\S[2]`},
		{"a1-", `\L\D\S`},
	}
	for _, c := range cases {
		if got := l2.Generalize(c.in); got != c.want {
			t.Errorf("L2(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGeneralizeIdempotentOnClassValues(t *testing.T) {
	// Same-format values must map to the same pattern: that is the whole
	// point of generalization (combats sparsity).
	l2 := L2()
	if l2.Generalize("1918-01-01") != l2.Generalize("2018-12-31") {
		t.Error("same-format dates should share a pattern under L2")
	}
}

func TestDefaultTree(t *testing.T) {
	root := DefaultTree()
	if root.Label != `\A` {
		t.Fatalf("root label = %q", root.Label)
	}
	if root.Depth() != 4 {
		t.Errorf("tree depth = %d, want 4", root.Depth())
	}
	leaves := root.Leaves()
	// 26 upper + 26 lower + 10 digits + printable symbols incl. space.
	if len(leaves) < 85 || len(leaves) > 100 {
		t.Errorf("unexpected leaf count %d", len(leaves))
	}
	seen := map[string]bool{}
	for _, l := range leaves {
		if seen[l] {
			t.Errorf("duplicate leaf %q", l)
		}
		seen[l] = true
	}
	for _, want := range []string{"A", "z", "0", "9", "-", " "} {
		if !seen[want] {
			t.Errorf("leaf %q missing from tree", want)
		}
	}
}

func TestGeneralityRankOrdering(t *testing.T) {
	if Leaf().GeneralityRank() != 0 {
		t.Error("leaf language should have rank 0")
	}
	if r := Root().GeneralityRank(); r != 12 {
		t.Errorf("root language rank = %d, want 12", r)
	}
	if Crude().GeneralityRank() >= Root().GeneralityRank() {
		t.Error("crude should be less general than root")
	}
}

// Property: generalization preserves total character count (each input rune
// is accounted for by exactly one leaf char or one unit of a class run).
func TestGeneralizePreservesLength(t *testing.T) {
	f := func(s string, id uint8) bool {
		// A literal backslash kept at the leaf level is ambiguous with the
		// class-token rendering; the decoder below is test-only, so strip it.
		s = strings.ReplaceAll(s, `\`, "/")
		l := All()[int(id)%144]
		got := l.Generalize(s)
		return patternRuneCount(got) == len([]rune(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// patternRuneCount decodes a rendered pattern and counts the number of input
// runes it represents.
func patternRuneCount(p string) int {
	n := 0
	rs := []rune(p)
	for i := 0; i < len(rs); {
		if rs[i] == '\\' && i+1 < len(rs) && strings.ContainsRune("UlLDSA", rs[i+1]) {
			i += 2
			run := 1
			if i < len(rs) && rs[i] == '[' {
				j := i + 1
				run = 0
				for j < len(rs) && rs[j] != ']' {
					run = run*10 + int(rs[j]-'0')
					j++
				}
				i = j + 1
			}
			n += run
			continue
		}
		n++
		i++
	}
	return n
}

// Property: values with identical category sequences generalize identically
// under every language whose categories are all non-leaf.
func TestGeneralizeClassOnlyDependsOnCategories(t *testing.T) {
	l := L2()
	f := func(s string) bool {
		mapped := make([]rune, 0, len(s))
		for _, r := range s {
			switch Categorize(r) {
			case CatUpper:
				mapped = append(mapped, 'Q')
			case CatLower:
				mapped = append(mapped, 'q')
			case CatDigit:
				mapped = append(mapped, '7')
			default:
				mapped = append(mapped, '#')
			}
		}
		return l.Generalize(s) == l.Generalize(string(mapped))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringRenderings(t *testing.T) {
	toks := map[Token]string{
		TokenLeaf: "·", TokenUpper: `\U`, TokenLower: `\l`, TokenLetter: `\L`,
		TokenDigit: `\D`, TokenSymbol: `\S`, TokenAny: `\A`, Token(99): "?",
	}
	for tok, want := range toks {
		if got := tok.String(); got != want {
			t.Errorf("Token(%d).String() = %q, want %q", tok, got, want)
		}
	}
	l2 := L2()
	if got := l2.String(); got != `U=\L l=\L d=\D s=\S` {
		t.Errorf("L2.String() = %q", got)
	}
}

func BenchmarkGeneralize(b *testing.B) {
	l := L2()
	v := "ITF $50.000 WTA International 2011-01-02"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.Generalize(v)
	}
}

func TestShape(t *testing.T) {
	cases := map[string]string{
		"2011-6-1":   `\D-\D-\D`,
		"2011-06-01": `\D-\D-\D`,
		"Zoe Kim":    `\U\l \U\l`,
		"":           "",
	}
	for v, want := range cases {
		if got := Shape(v); got != want {
			t.Errorf("Shape(%q) = %q, want %q", v, got, want)
		}
	}
}
