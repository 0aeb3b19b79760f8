package corpus

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
)

func TestCommaInt(t *testing.T) {
	cases := []struct {
		in   int
		want string
	}{
		{0, "0"}, {7, "7"}, {999, "999"}, {1000, "1,000"},
		{1234567, "1,234,567"}, {-4200, "-4,200"}, {100000, "100,000"},
	}
	for _, c := range cases {
		if got := commaInt(c.in); got != c.want {
			t.Errorf("commaInt(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestOrdinal(t *testing.T) {
	cases := map[int]string{1: "1st", 2: "2nd", 3: "3rd", 4: "4th", 11: "11th", 12: "12th", 13: "13th", 21: "21st", 22: "22nd", 33: "33rd", 99: "99th"}
	for in, want := range cases {
		if got := ordinal(in); got != want {
			t.Errorf("ordinal(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestEveryDomainGenerates(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range Domains() {
		col, err := GenerateColumn(r, d, 20)
		if err != nil {
			t.Fatalf("domain %s: %v", d, err)
		}
		if len(col.Values) != 20 {
			t.Fatalf("domain %s: %d values", d, len(col.Values))
		}
		for _, v := range col.Values {
			if v == "" {
				t.Errorf("domain %s produced an empty value", d)
			}
			if strings.TrimSpace(v) != v {
				t.Errorf("domain %s produced untrimmed value %q", d, v)
			}
		}
	}
	if _, err := GenerateColumn(r, "no_such_domain", 5); err == nil {
		t.Error("unknown domain should error")
	}
}

// Clean single-format family columns must be internally pattern-consistent
// under the crude generalization: that is the invariant the corpus
// generator exists to provide.
func TestFamilyDomainsAreFormatConsistent(t *testing.T) {
	crude := pattern.Crude()
	r := rand.New(rand.NewSource(2))
	for _, d := range Domains() {
		if Family(d) == "" {
			continue
		}
		for trial := 0; trial < 5; trial++ {
			col, err := GenerateColumn(r, d, 30)
			if err != nil {
				t.Fatal(err)
			}
			pats := map[string]bool{}
			for _, v := range col.Values {
				pats[crude.Generalize(v)] = true
			}
			// Allow per-column variation from varying run lengths (1- vs
			// 2-digit days, month-name lengths, path depths/word lengths)
			// but never an unbounded format explosion.
			if len(pats) > 40 {
				t.Errorf("domain %s: %d distinct crude patterns in one clean column", d, len(pats))
			}
		}
	}
}

func TestSiblingsAndFamilies(t *testing.T) {
	if Family("date_iso") != "date" {
		t.Errorf("Family(date_iso) = %q", Family("date_iso"))
	}
	if Family("word") != "" {
		t.Error("word should have no family")
	}
	sibs := Siblings("date_iso")
	if len(sibs) < 5 {
		t.Errorf("date_iso siblings = %v", sibs)
	}
	for _, s := range sibs {
		if s == "date_iso" {
			t.Error("Siblings must exclude the domain itself")
		}
		if Family(s) != "date" {
			t.Errorf("sibling %s not in date family", s)
		}
	}
	if Siblings("word") != nil {
		t.Error("word should have no siblings")
	}
	if Family("nope") != "" || Siblings("nope") != nil {
		t.Error("unknown domain should have no family")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(WikiProfile(), 50, 99)
	b := Generate(WikiProfile(), 50, 99)
	if len(a.Columns) != len(b.Columns) {
		t.Fatal("length mismatch")
	}
	for i := range a.Columns {
		if a.Columns[i].Domain != b.Columns[i].Domain {
			t.Fatal("domain sequence differs between identical seeds")
		}
		if strings.Join(a.Columns[i].Values, "\x00") != strings.Join(b.Columns[i].Values, "\x00") {
			t.Fatal("values differ between identical seeds")
		}
	}
	c := Generate(WikiProfile(), 50, 100)
	same := true
	for i := range a.Columns {
		if strings.Join(a.Columns[i].Values, "\x00") != strings.Join(c.Columns[i].Values, "\x00") {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different corpora")
	}
}

func TestGenerateRespectsProfile(t *testing.T) {
	p := WikiProfile()
	c := Generate(p, 2000, 7)
	if c.NumColumns() != 2000 {
		t.Fatalf("NumColumns = %d", c.NumColumns())
	}
	dirtyRate := float64(c.DirtyColumns()) / float64(c.NumColumns())
	if dirtyRate < 0.005 || dirtyRate > 0.06 {
		t.Errorf("dirty rate %.3f outside the configured ~2.2%%", dirtyRate)
	}
	for _, col := range c.Columns {
		if col.Dirty == nil {
			t.Fatal("labeled profile must mark every column")
		}
		if len(col.Values) < p.MinRows || len(col.Values) > p.MaxRows {
			t.Fatalf("column length %d outside [%d,%d]", len(col.Values), p.MinRows, p.MaxRows)
		}
	}
	clean := Generate(WebProfile(), 500, 8)
	for _, col := range clean.Columns {
		if col.Dirty != nil {
			t.Fatal("unlabeled profile must not mark columns")
		}
	}
}

func TestProfileWeightsShiftDomainMix(t *testing.T) {
	wiki := Generate(WikiProfile(), 3000, 5)
	ent := Generate(EntXLSProfile(), 3000, 5)
	count := func(c *Corpus, domain string) int {
		n := 0
		for _, col := range c.Columns {
			if col.Domain == domain {
				n++
			}
		}
		return n
	}
	if count(wiki, "year") <= count(ent, "year") {
		t.Error("WIKI should generate more year columns than Ent-XLS")
	}
	if count(ent, "currency_usd") <= count(wiki, "currency_usd") {
		t.Error("Ent-XLS should generate more currency columns than WIKI")
	}
}

func TestInjectErrorProducesDetectableLabel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	crude := pattern.Crude()
	injected := 0
	for trial := 0; trial < 300; trial++ {
		d := Domains()[r.Intn(len(Domains()))]
		col, err := GenerateColumn(r, d, 10)
		if err != nil {
			t.Fatal(err)
		}
		col.Dirty = []int{}
		kind := InjectError(r, col)
		if kind == "" {
			continue
		}
		injected++
		if len(col.Dirty) != 1 {
			t.Fatalf("Dirty = %v after injection", col.Dirty)
		}
		i := col.Dirty[0]
		if !col.IsDirty(i) || col.IsDirty((i+1)%len(col.Values)) {
			t.Fatal("IsDirty disagrees with Dirty")
		}
		// The injected value must differ in crude pattern from at least one
		// clean value (otherwise it is unlabeled noise).
		dirtyPat := crude.Generalize(col.Values[i])
		differs := false
		for j, v := range col.Values {
			if j != i && crude.Generalize(v) != dirtyPat {
				differs = true
				break
			}
		}
		if !differs {
			t.Errorf("domain %s corruption %s: injected value %q pattern-identical to whole column",
				d, kind, col.Values[i])
		}
	}
	if injected < 250 {
		t.Errorf("only %d/300 injections succeeded", injected)
	}
}

func TestCSVSuite(t *testing.T) {
	s := CSVSuite()
	if s.NumColumns() != 441 {
		t.Fatalf("CSV suite has %d columns, want 441", s.NumColumns())
	}
	dirty := s.DirtyColumns()
	if dirty < 100 {
		t.Errorf("CSV suite only has %d dirty columns", dirty)
	}
	for _, col := range s.Columns {
		if col.Dirty == nil {
			t.Fatalf("column %s is unlabeled", col.Name)
		}
	}
	// Hand-authored archetypes are present and labeled.
	if s.Columns[0].Name != "fig1a-extra-dot" || len(s.Columns[0].Dirty) != 1 {
		t.Error("hand-authored archetypes missing")
	}
}

func TestReadWriteCSVRoundTrip(t *testing.T) {
	cols := []*Column{
		{Name: "a", Values: []string{"1", "2", "3"}},
		{Name: "b", Values: []string{"x", "y"}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, cols); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "a" || back[1].Name != "b" {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if len(back[0].Values) != 3 || back[0].Values[2] != "3" {
		t.Errorf("column a = %v", back[0].Values)
	}
	// Padding cells come back as empty strings.
	if len(back[1].Values) != 3 || back[1].Values[2] != "" {
		t.Errorf("column b = %v", back[1].Values)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	cols, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Name != "col0" || len(cols[0].Values) != 2 {
		t.Fatalf("cols = %+v", cols)
	}
	empty, err := ReadCSV(strings.NewReader(""), true)
	if err != nil || empty != nil {
		t.Errorf("empty input: %v %v", empty, err)
	}
}

func TestDistinctValues(t *testing.T) {
	c := &Column{Values: []string{"a", "b", "a", "c", "b"}}
	got := c.DistinctValues()
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("DistinctValues = %v", got)
	}
}

// Property: sampleCumulative always returns a valid index and respects zero
// ranges.
func TestSampleCumulative(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		k := int(n%20) + 1
		cum := make([]float64, k)
		total := 0.0
		r := rand.New(rand.NewSource(seed))
		for i := range cum {
			total += r.Float64() + 0.01
			cum[i] = total
		}
		idx := sampleCumulative(r, cum)
		return idx >= 0 && idx < k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateWikiColumn(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateColumn(r, "date_iso", 20); err != nil {
			b.Fatal(err)
		}
	}
}
