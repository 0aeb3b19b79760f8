package stats

import "repro/internal/pattern"

// Builder accumulates corpus statistics for many generalization languages
// in a single pass over the columns, encoding each distinct value into
// category runs exactly once.
type Builder struct {
	stats []*LanguageStats
}

// NewBuilder returns a builder for the given languages, all using the same
// smoothing factor.
func NewBuilder(langs []pattern.Language, smoothing float64) *Builder {
	b := &Builder{stats: make([]*LanguageStats, len(langs))}
	for i, l := range langs {
		b.stats[i] = NewLanguageStats(l, smoothing)
	}
	return b
}

// AddColumn records one corpus column under every language.
func (b *Builder) AddColumn(values []string) {
	seen := make(map[string]struct{}, len(values))
	runs := make([]pattern.Runs, 0, len(values))
	for _, v := range values {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		runs = append(runs, pattern.Encode(v))
	}
	for _, ls := range b.stats {
		ls.AddColumnRuns(runs)
	}
}

// Stats returns the per-language statistics, in the order the languages
// were given to NewBuilder.
func (b *Builder) Stats() []*LanguageStats { return b.stats }
