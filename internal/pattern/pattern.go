// Package pattern implements the generalization machinery of Auto-Detect
// (Huang & He, SIGMOD 2018): the character generalization tree (Definition 1),
// the space of generalization languages induced by the tree (Definition 2),
// and the generalization of string values into run-length encoded patterns
// such as `\A[4]-\A[2]` (Equation 3 and Example 2 of the paper).
//
// A generalization language maps each character of a value to a node of the
// generalization tree. Different languages trade sensitivity for robustness:
// the leaf language keeps every character verbatim (maximally sensitive,
// maximally sparse), while the root language maps everything to `\A`
// (maximally robust, insensitive). Auto-Detect selects an ensemble of
// languages whose co-occurrence statistics jointly detect incompatible
// values.
package pattern

import (
	"strings"
	"unicode"
)

// Token identifies a node of the generalization tree that a character can be
// mapped to. TokenLeaf is special: it means "keep the character itself".
type Token uint8

// Tree nodes, ordered roughly from most specific to most general.
const (
	// TokenLeaf keeps the concrete character (a leaf of the tree).
	TokenLeaf Token = iota
	// TokenUpper generalizes to the upper-case letter class `\U`.
	TokenUpper
	// TokenLower generalizes to the lower-case letter class `\l`.
	TokenLower
	// TokenLetter generalizes to the letter class `\L` (union of `\U`, `\l`).
	TokenLetter
	// TokenDigit generalizes to the digit class `\D`.
	TokenDigit
	// TokenSymbol generalizes to the symbol/punctuation class `\S`.
	TokenSymbol
	// TokenAny generalizes to the root of the tree `\A`.
	TokenAny

	numTokens
)

// String returns the pattern-syntax rendering of the token class.
// TokenLeaf has no class rendering; callers emit the character itself.
func (t Token) String() string {
	switch t {
	case TokenLeaf:
		return "·"
	case TokenUpper:
		return `\U`
	case TokenLower:
		return `\l`
	case TokenLetter:
		return `\L`
	case TokenDigit:
		return `\D`
	case TokenSymbol:
		return `\S`
	case TokenAny:
		return `\A`
	default:
		return "?"
	}
}

// Category partitions the alphabet into the four base character categories
// at the bottom of the generalization tree. Every rune belongs to exactly
// one category.
type Category uint8

// Base character categories.
const (
	CatUpper Category = iota
	CatLower
	CatDigit
	CatSymbol

	numCategories
)

// Categorize returns the base category of r. Anything that is not a letter
// or a decimal digit (including whitespace) is a symbol, mirroring the
// paper's tree in Figure 3.
func Categorize(r rune) Category {
	switch {
	case r >= 'A' && r <= 'Z':
		return CatUpper
	case r >= 'a' && r <= 'z':
		return CatLower
	case r >= '0' && r <= '9':
		return CatDigit
	case unicode.IsUpper(r):
		return CatUpper
	case unicode.IsLower(r):
		return CatLower
	case unicode.IsDigit(r):
		return CatDigit
	default:
		return CatSymbol
	}
}

// Language is a generalization language (Definition 2): a mapping from each
// base character category to a tree node, i.e. a "cut" of the generalization
// tree. The zero value is the leaf language (no generalization).
//
// With the paper's restriction that all characters of a class generalize to
// the same level, the candidate space contains 4×4×3×3 = 144 languages
// (upper: leaf/\U/\L/\A; lower: leaf/\l/\L/\A; digit: leaf/\D/\A;
// symbol: leaf/\S/\A).
type Language struct {
	// ID is the index of the language in All(). It is stable across runs.
	ID int
	// Upper, Lower, Digit and Symbol give the tree node each base category
	// generalizes to.
	Upper, Lower, Digit, Symbol Token
}

// Valid reports whether the language is a legal cut of the generalization
// tree of Figure 3 (each category may only generalize along its own path to
// the root).
func (l Language) Valid() bool {
	okU := l.Upper == TokenLeaf || l.Upper == TokenUpper || l.Upper == TokenLetter || l.Upper == TokenAny
	okL := l.Lower == TokenLeaf || l.Lower == TokenLower || l.Lower == TokenLetter || l.Lower == TokenAny
	okD := l.Digit == TokenLeaf || l.Digit == TokenDigit || l.Digit == TokenAny
	okS := l.Symbol == TokenLeaf || l.Symbol == TokenSymbol || l.Symbol == TokenAny
	return okU && okL && okD && okS
}

// token returns the tree node the language assigns to category c.
func (l Language) token(c Category) Token {
	switch c {
	case CatUpper:
		return l.Upper
	case CatLower:
		return l.Lower
	case CatDigit:
		return l.Digit
	default:
		return l.Symbol
	}
}

// String returns a compact human-readable name, e.g. "U=\L l=\L d=\D s=·".
func (l Language) String() string {
	var b strings.Builder
	b.WriteString("U=")
	b.WriteString(l.Upper.String())
	b.WriteString(" l=")
	b.WriteString(l.Lower.String())
	b.WriteString(" d=")
	b.WriteString(l.Digit.String())
	b.WriteString(" s=")
	b.WriteString(l.Symbol.String())
	return b.String()
}

// Generalize maps value v to its pattern under the language (Equation 3),
// run-length encoding consecutive identical class tokens: four digits map
// to `\D[4]` under a digit-class language. Leaf-mapped characters are kept
// verbatim (byte-exact, including invalid UTF-8). The empty value
// generalizes to the empty pattern.
//
// Generalize is defined as FromRuns∘Encode so the three generalization
// entry points (Generalize, FromRuns, HashRuns) can never disagree.
func (l Language) Generalize(v string) string {
	return l.FromRuns(Encode(v))
}

// partition is the key of the partition of values a language induces. Entry
// c is -1 when category c stays literal, else the first category that
// shares c's token. Every token renders as one two-byte class name, so two
// languages with the same key map each value's pattern one-to-one onto the
// other's: they see identical pattern counts, co-occurrences and NPMI, and
// their statistics take the same number of bytes. (The one exception is a
// value whose literal text spells a class name, such as a backslash kept
// literal before an upper-case "L": rendering already cannot tell it from
// the class, in any language.)
func (l Language) partition() [numCategories]int8 {
	var key [numCategories]int8
	for c := Category(0); c < numCategories; c++ {
		key[c] = -1
		if t := l.token(c); t != TokenLeaf {
			for first := Category(0); first <= c; first++ {
				if l.token(first) == t {
					key[c] = int8(first)
					break
				}
			}
		}
	}
	return key
}

// Representatives returns the first member of each partition class of
// langs, in input order. Two languages are in one class when the same
// categories stay literal and the same collapsed categories share a
// token; the 144 candidates fall into 50 classes. Counting only the
// representatives loses nothing: every other member's statistics equal
// its representative's, and budgeted selection (core.SelectGreedy keeps
// the lowest index among equal gains) picks the first member of a class
// anyway. The result is its own fixed point.
func Representatives(langs []Language) []Language {
	seen := make(map[[numCategories]int8]bool, len(langs))
	var reps []Language
	for _, l := range langs {
		if k := l.partition(); !seen[k] {
			seen[k] = true
			reps = append(reps, l)
		}
	}
	return reps
}

// Shape is v's crude pattern (Crude().Generalize) with its run-length
// annotations removed, so that values differing only in run lengths
// share a shape: "2011-6-1" and "2011-06-01" are both `\D-\D-\D`.
func Shape(v string) string { return StripRuns(crude.Generalize(v)) }

// StripRuns removes the "[n]" run-length annotations from pattern p:
// `\D[4].\D[2]` becomes `\D.\D`.
func StripRuns(p string) string {
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		if p[i] == '[' {
			for i < len(p) && p[i] != ']' {
				i++
			}
			continue
		}
		b.WriteByte(p[i])
	}
	return b.String()
}

// All returns the 144 candidate generalization languages induced by the
// generalization tree under the paper's class-level restriction. The slice
// is ordered deterministically and each language's ID equals its index.
func All() []Language {
	uppers := []Token{TokenLeaf, TokenUpper, TokenLetter, TokenAny}
	lowers := []Token{TokenLeaf, TokenLower, TokenLetter, TokenAny}
	digits := []Token{TokenLeaf, TokenDigit, TokenAny}
	symbols := []Token{TokenLeaf, TokenSymbol, TokenAny}
	langs := make([]Language, 0, len(uppers)*len(lowers)*len(digits)*len(symbols))
	for _, u := range uppers {
		for _, lo := range lowers {
			for _, d := range digits {
				for _, s := range symbols {
					langs = append(langs, Language{
						ID:     len(langs),
						Upper:  u,
						Lower:  lo,
						Digit:  d,
						Symbol: s,
					})
				}
			}
		}
	}
	return langs
}

// ByID returns the language with the given All() index.
func ByID(id int) Language {
	all := All()
	if id < 0 || id >= len(all) {
		return Language{ID: -1}
	}
	return all[id]
}

// Leaf returns the language that performs no generalization (Lleaf in the
// paper): maximally sensitive, maximally sparse.
func Leaf() Language {
	return Find(TokenLeaf, TokenLeaf, TokenLeaf, TokenLeaf)
}

// Root returns the language that generalizes everything to `\A` (Lroot in
// the paper): maximally robust, insensitive.
func Root() Language {
	return Find(TokenAny, TokenAny, TokenAny, TokenAny)
}

// Crude returns the crude generalization G() used by distant supervision
// (Appendix F): digits, upper- and lower-case letters generalize to their
// class, while symbols and punctuation are kept untouched.
func Crude() Language {
	return Find(TokenUpper, TokenLower, TokenDigit, TokenLeaf)
}

var crude = Crude()

// L1 returns the language of Example 2, Equation 4: symbols are kept
// verbatim, everything else generalizes to the root `\A`.
func L1() Language {
	return Find(TokenAny, TokenAny, TokenAny, TokenLeaf)
}

// L2 returns the language of Example 2, Equation 5: letters generalize to
// `\L`, digits to `\D`, symbols to `\S`.
func L2() Language {
	return Find(TokenLetter, TokenLetter, TokenDigit, TokenSymbol)
}

// Find returns the candidate language that maps the four base categories
// to the given tree nodes. It panics if that mapping is not a cut of the
// generalization tree (Valid), so it suits package-level language tables.
func Find(upper, lower, digit, symbol Token) Language {
	for _, l := range All() {
		if l.Upper == upper && l.Lower == lower && l.Digit == digit && l.Symbol == symbol {
			return l
		}
	}
	panic("pattern: language not in candidate space: " + Language{Upper: upper, Lower: lower, Digit: digit, Symbol: symbol}.String())
}
