package pattern

import "strconv"

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

// patternBuf is the stack buffer FromRuns and HashRuns render into; a
// longer pattern spills to the heap.
const patternBuf = 128

// AppendRuns appends the pattern of a category-run encoded value under the
// language to dst and returns the extended slice. It is the one renderer:
// FromRuns, Generalize and HashRuns are all defined through it, and the
// statistics key their counts by its output.
func (l Language) AppendRuns(dst []byte, rs Runs) []byte {
	prev := Token(255) // never TokenLeaf
	run := 0
	for _, r := range rs {
		t := l.token(r.Cat)
		if t == prev {
			run += r.N
			continue
		}
		dst = appendClass(dst, prev, run)
		if t == TokenLeaf {
			dst = append(dst, r.Text...)
			prev, run = Token(255), 0
			continue
		}
		prev, run = t, r.N
	}
	return appendClass(dst, prev, run)
}

// appendClass appends the rendering of a run of n characters of class t,
// `\D` or `\D[n]`; nothing when n is 0.
func appendClass(dst []byte, t Token, n int) []byte {
	if n == 0 {
		return dst
	}
	dst = append(dst, t.String()...)
	switch {
	case n == 1:
	case n < 10: // the common case; strconv costs a call per run
		dst = append(dst, '[', byte('0'+n), ']')
	default:
		dst = append(strconv.AppendInt(append(dst, '['), int64(n), 10), ']')
	}
	return dst
}

// FromRuns generalizes a category-run encoded value under the language,
// producing exactly the same pattern as Generalize on the original string.
func (l Language) FromRuns(rs Runs) string {
	var buf [patternBuf]byte
	return string(l.AppendRuns(buf[:0], rs))
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the FNV-1a hash of s.
func Hash64(s string) uint64 { return fnv1a(s) }

func fnv1a[T string | []byte](s T) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashRuns returns Hash64(l.FromRuns(rs)), rendering into a stack buffer
// instead of a string.
func (l Language) HashRuns(rs Runs) uint64 {
	var buf [patternBuf]byte
	return fnv1a(l.AppendRuns(buf[:0], rs))
}
