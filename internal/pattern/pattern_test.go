package pattern

import (
	"math/rand"
	"slices"
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

func TestStripRunsAndFind(t *testing.T) {
	for p, want := range map[string]string{`\D[4].\D[2]`: `\D.\D`, `\L[12]`: `\L`, `a-b`: `a-b`, "": ""} {
		if got := StripRuns(p); got != want {
			t.Errorf("StripRuns(%q) = %q, want %q", p, got, want)
		}
	}
	for _, l := range All() {
		if got := Find(l.Upper, l.Lower, l.Digit, l.Symbol); got != l {
			t.Fatalf("Find(%v) = %v", l, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Find outside the candidate space did not panic")
		}
	}()
	Find(TokenDigit, TokenLeaf, TokenLeaf, TokenLeaf)
}

// TestRepresentatives: the 144 candidates fall into 50 partition classes,
// and Representatives keeps the first member of each, in input order, for
// any candidate list.
func TestRepresentatives(t *testing.T) {
	all := All()
	reps := Representatives(all)
	if len(reps) != 50 {
		t.Fatalf("%d representatives of All(), want 50", len(reps))
	}
	// The languages the default training selects are their class's first.
	isRep := map[int]bool{}
	for _, r := range reps {
		isRep[r.ID] = true
	}
	for _, id := range []int{143, 140, 71, 141, L1().ID, L2().ID, Crude().ID, Leaf().ID, Root().ID} {
		if !isRep[id] {
			t.Errorf("language %d (%v) is not a representative", id, ByID(id))
		}
	}
	if isRep[107] {
		t.Error("107, the twin of 71, is a representative")
	}

	check := func(langs []Language) {
		t.Helper()
		reps := Representatives(langs)
		if again := Representatives(reps); !slices.Equal(again, reps) {
			t.Fatalf("not idempotent: %v then %v", reps, again)
		}
		for i, l := range langs {
			// l is represented by exactly one representative: the first
			// member of its class at or before position i.
			first := -1
			for j := 0; j <= i; j++ {
				if langs[j].partition() == l.partition() {
					first = j
					break
				}
			}
			n := 0
			for _, r := range reps {
				if r.partition() == l.partition() {
					n++
					if r != langs[first] {
						t.Fatalf("class of %v is represented by %v, want first member %v", l, r, langs[first])
					}
				}
			}
			if n != 1 {
				t.Fatalf("%v has %d representatives", l, n)
			}
		}
		// Input order is kept.
		pos := map[Language]int{}
		for i, l := range langs {
			if _, ok := pos[l]; !ok {
				pos[l] = i
			}
		}
		for i := 1; i < len(reps); i++ {
			if pos[reps[i-1]] >= pos[reps[i]] {
				t.Fatalf("representatives out of input order: %v", reps)
			}
		}
	}
	check(all)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		sub := slices.Clone(all)
		r.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
		check(sub[:1+r.Intn(len(sub))])
	}
	if Representatives(nil) != nil {
		t.Error("Representatives(nil) is not empty")
	}
}

// TestSamePartitionGeneralizes: members of one class put the same values
// together. Under two languages of one class, two values share a pattern
// under one exactly when they share it under the other.
func TestSamePartitionGeneralizes(t *testing.T) {
	values := []string{"", "2011-06-20", "2011/06/20", "20 June 2011", "ab", "AB", "Ab", "aB", "a1", "A1",
		"1a", "a-b", "a b", "1,000", "1.000", "$5", "5%", "Zoe Kim", "ZOE KIM", "x9Y", "9", "-", "é", "É12"}
	reps := Representatives(All())
	for _, l := range All() {
		for _, r := range reps {
			if l.partition() != r.partition() {
				continue
			}
			for _, a := range values {
				for _, b := range values {
					if (l.Generalize(a) == l.Generalize(b)) != (r.Generalize(a) == r.Generalize(b)) {
						t.Fatalf("%v and its representative %v disagree on %q vs %q", l, r, a, b)
					}
				}
				if len(l.Generalize(a)) != len(r.Generalize(a)) {
					t.Fatalf("%v and %v render %q at different lengths", l, r, a)
				}
			}
		}
	}
}
