package core

import "sort"

// Distinct is one distinct value of a column.
type Distinct struct {
	// Value is the cell text.
	Value string
	// Count is the number of rows holding Value.
	Count int
	// First is the row of Value's first occurrence.
	First int
}

// Tabulate returns a column's distinct table: every distinct value, empty
// cells included, in first-occurrence order, with its count and first row.
// It is a column's one pass over its rows; each consumer filters the table
// for itself (the pattern detector scores NonEmpty, the value-level
// detector its supported values).
func Tabulate(values []string) []Distinct {
	var out []Distinct
	index := map[string]int{}
	for i, v := range values {
		if j, ok := index[v]; ok {
			out[j].Count++
			continue
		}
		index[v] = len(out)
		out = append(out, Distinct{Value: v, Count: 1, First: i})
	}
	return out
}

// NonEmpty returns table without its empty-cell entry: empty cells are
// missing data, not values. The table is returned as is when it has none.
func NonEmpty(table []Distinct) []Distinct {
	for i, d := range table {
		if d.Value == "" {
			return append(table[:i:i], table[i+1:]...)
		}
	}
	return table
}

// Attribute turns per-pair verdicts into ranked findings. verdict(i, j),
// called once for every i < j, says whether distinct[i] and distinct[j]
// conflict and how confidently. A value's confidence is the count-weighted
// confidence of its flagged conflicts over all its partners, so a lone
// error conflicting with everything scores near the per-pair confidence
// while majority values conflicting only with the error score near zero.
// Partner is the value it conflicts with most confidently (the first such
// on ties). Findings are sorted by descending confidence, ties in
// distinct order.
func Attribute(distinct []Distinct, verdict func(i, j int) (confidence float64, flagged bool)) []Finding {
	n := len(distinct)
	type acc struct {
		confSum float64 // Σ over conflicting partners: count·conf
		weight  float64 // Σ over all partners: count
		best    float64
		partner int
	}
	accs := make([]acc, n)
	for i := range accs {
		accs[i].partner = -1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conf, flagged := verdict(i, j)
			ci, cj := float64(distinct[i].Count), float64(distinct[j].Count)
			accs[i].weight += cj
			accs[j].weight += ci
			if !flagged {
				continue
			}
			accs[i].confSum += conf * cj
			accs[j].confSum += conf * ci
			if conf > accs[i].best {
				accs[i].best, accs[i].partner = conf, j
			}
			if conf > accs[j].best {
				accs[j].best, accs[j].partner = conf, i
			}
		}
	}

	var out []Finding
	for i, a := range accs {
		if a.partner < 0 || a.weight == 0 {
			continue
		}
		out = append(out, Finding{
			Value:      distinct[i].Value,
			Index:      distinct[i].First,
			Partner:    distinct[a.partner].Value,
			Confidence: a.confSum / a.weight,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}
