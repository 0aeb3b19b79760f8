package pattern

import (
	"strconv"
	"strings"
)

// Run is a maximal sequence of consecutive characters of one base category
// within a value.
type Run struct {
	// Cat is the base category of every character in the run.
	Cat Category
	// Text is the literal text of the run.
	Text string
	// N is the number of runes in the run.
	N int
}

// Runs is the category-run encoding of a value. Encoding a value once and
// generalizing the runs under many languages (FromRuns) avoids re-scanning
// the string per language, which matters when building statistics for all
// 144 candidate languages.
type Runs []Run

// Encode splits v into category runs.
func Encode(v string) Runs {
	var out Runs
	start := 0
	n := 0
	var cur Category = numCategories // sentinel
	for i, r := range v {
		c := Categorize(r)
		if c != cur {
			if n > 0 {
				out = append(out, Run{Cat: cur, Text: v[start:i], N: n})
			}
			cur = c
			start = i
			n = 0
		}
		n++
	}
	if n > 0 {
		out = append(out, Run{Cat: cur, Text: v[start:], N: n})
	}
	return out
}

// FromRuns generalizes a category-run encoded value under the language,
// producing exactly the same pattern as Generalize on the original string.
func (l Language) FromRuns(rs Runs) string {
	var b strings.Builder
	prev := Token(255)
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		b.WriteString(prev.String())
		if run > 1 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(run))
			b.WriteByte(']')
		}
		run = 0
	}
	for _, r := range rs {
		t := l.token(r.Cat)
		if t == TokenLeaf {
			flush()
			prev = Token(255)
			b.WriteString(r.Text)
			continue
		}
		if t == prev {
			run += r.N
			continue
		}
		flush()
		prev = t
		run = r.N
	}
	flush()
	return b.String()
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the FNV-1a hash of s, the same function HashRuns streams.
func Hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// HashRuns returns Hash64(l.FromRuns(rs)) without materializing the pattern
// string. This is the allocation-free hot path used when building corpus
// statistics for all 144 candidate languages.
func (l Language) HashRuns(rs Runs) uint64 {
	h := uint64(fnvOffset64)
	prev := Token(255)
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		h = fnvString(h, prev.String())
		if run > 1 {
			h = fnvByte(h, '[')
			// Decimal digits of run, most significant first.
			var digits [20]byte
			n := 0
			for v := run; v > 0; v /= 10 {
				digits[n] = byte('0' + v%10)
				n++
			}
			for i := n - 1; i >= 0; i-- {
				h = fnvByte(h, digits[i])
			}
			h = fnvByte(h, ']')
		}
		run = 0
	}
	for _, r := range rs {
		t := l.token(r.Cat)
		if t == TokenLeaf {
			flush()
			prev = Token(255)
			h = fnvString(h, r.Text)
			continue
		}
		if t == prev {
			run += r.N
			continue
		}
		flush()
		prev = t
		run = r.N
	}
	flush()
	return h
}

// MatchRuns reports whether l.FromRuns(rs) == p, streaming the rendering
// against p instead of building it: interning checks a hash hit against
// the stored pattern with it, allocation-free.
func (l Language) MatchRuns(rs Runs, p string) bool {
	prev := Token(255) // never TokenLeaf
	run := 0
	ok := true
	for _, r := range rs {
		t := l.token(r.Cat)
		if t == prev {
			run += r.N
			continue
		}
		if run > 0 {
			if p, ok = matchClass(p, prev, run); !ok {
				return false
			}
		}
		if t == TokenLeaf {
			if !strings.HasPrefix(p, r.Text) {
				return false
			}
			p = p[len(r.Text):]
			prev, run = Token(255), 0
			continue
		}
		prev, run = t, r.N
	}
	if run > 0 {
		if p, ok = matchClass(p, prev, run); !ok {
			return false
		}
	}
	return p == ""
}

// matchClass consumes the rendering of a run of n characters of class t,
// `\D` or `\D[n]`, from the front of p.
func matchClass(p string, t Token, n int) (string, bool) {
	s := t.String()
	if !strings.HasPrefix(p, s) {
		return p, false
	}
	p = p[len(s):]
	if n == 1 {
		return p, true
	}
	// "[n]" with n in canonical decimal: no leading zero, at most 18
	// digits so the parse cannot overflow.
	if len(p) < 3 || p[0] != '[' || p[1] == '0' {
		return p, false
	}
	v, i := 0, 1
	for ; i < len(p) && i <= 18 && p[i] >= '0' && p[i] <= '9'; i++ {
		v = v*10 + int(p[i]-'0')
	}
	if i == 1 || i == len(p) || p[i] != ']' || v != n {
		return p, false
	}
	return p[i+1:], true
}
