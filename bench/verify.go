package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/semantic"
)

// reference scores every column in-process, exactly as the serving and
// batch paths must: audit.CheckColumnHinted at the default confidence,
// with provenance stamped the way DB jobs stamp it. hints may be nil.
func reference(ctx context.Context, det *core.Detector, sem *semantic.Model, cols []*corpus.Column, hints []string) [][]audit.Finding {
	out := make([][]audit.Finding, len(cols))
	for i, c := range cols {
		hint := ""
		if hints != nil {
			hint = hints[i]
		}
		fs := audit.CheckColumnHinted(ctx, det, sem, c.Values, 0, hint)
		for j := range fs {
			fs[j].Source, fs[j].Table = c.Source, c.Table
		}
		out[i] = fs
	}
	return out
}

// columnBody is the check-column response shape.
type columnBody struct {
	Findings []audit.Finding `json:"findings"`
}

// encodeColumnBody renders findings the way the service writes them
// (json.Encoder, trailing newline), so matching responses compare as bytes.
func encodeColumnBody(fs []audit.Finding) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(columnBody{Findings: fs}) // a Buffer cannot fail
	return b.Bytes()
}

// match grades an output against its reference.
type match int

const (
	mismatch match = iota
	same
	// flap: equal except for repair suggestions. repair.Suggest breaks ties
	// between equally common column formats in map order, so the same
	// column can get a different (equally valid) suggestion on each
	// scoring. Flaps are counted, not failed.
	flap
)

// bodyMatches grades a check-column response against the reference
// findings. Byte equality is the fast path; otherwise the body is decoded
// and compared field by field, so a response that adds fields or reorders
// keys still passes when the findings agree.
func bodyMatches(body, want []byte, ref []audit.Finding) match {
	if bytes.Equal(body, want) {
		return same
	}
	var got columnBody
	if err := json.Unmarshal(body, &got); err != nil {
		return mismatch
	}
	return compareFindings(got.Findings, ref)
}

func compareFindings(got, want []audit.Finding) match {
	switch {
	case len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want):
		return same
	case reflect.DeepEqual(withoutSuggestions(got), withoutSuggestions(want)):
		return flap
	default:
		return mismatch
	}
}

// withoutSuggestions copies findings with their repair suggestions blanked.
func withoutSuggestions(fs []audit.Finding) []audit.Finding {
	out := make([]audit.Finding, len(fs))
	for i, f := range fs {
		f.Suggestion, f.SuggestionRule = "", ""
		out[i] = f
	}
	return out
}

// logFailures reports the first few failed operations; the run's failed
// count carries the total.
func logFailures(what string, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "%s failed: %s\n", what, e)
	}
}

// findingsSHA hashes findings in column order, without their repair
// suggestions (see flap): equal for two commits that find the same things
// on the same inputs.
func findingsSHA(all [][]audit.Finding) string {
	h := sha256.New()
	for i, fs := range all {
		b, err := json.Marshal(withoutSuggestions(fs))
		if err != nil {
			panic(err) // unreachable: findings are plain data
		}
		fmt.Fprintf(h, "%d\t%s\n", i, b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quality scores findings against planted errors:
//
//   - precision_at_k pools each column's top finding, ranks them by
//     confidence and takes the share of the top k (k = planted errors)
//     that name a planted value;
//   - recall_planted is the share of planted errors that appear among the
//     findings at confidence >= 0.5.
func quality(cols []*corpus.Column, found [][]audit.Finding) (precision, recall float64, planted int) {
	type top struct {
		conf float64
		hit  bool
	}
	var tops []top
	hits := 0
	for i, c := range cols {
		bad := map[string]bool{}
		for _, d := range c.Dirty {
			bad[c.Values[d]] = true
		}
		planted += len(c.Dirty)
		for _, d := range c.Dirty {
			for _, f := range found[i] {
				if f.Value == c.Values[d] && f.Confidence >= audit.DefaultMinConfidence {
					hits++
					break
				}
			}
		}
		if len(found[i]) == 0 {
			continue
		}
		best := found[i][0]
		for _, f := range found[i][1:] {
			if f.Confidence > best.Confidence {
				best = f
			}
		}
		tops = append(tops, top{best.Confidence, bad[best.Value]})
	}
	if planted == 0 {
		return 0, 0, 0
	}
	sort.SliceStable(tops, func(i, j int) bool { return tops[i].conf > tops[j].conf })
	correct := 0
	for i := 0; i < planted && i < len(tops); i++ {
		if tops[i].hit {
			correct++
		}
	}
	return float64(correct) / float64(planted), float64(hits) / float64(planted), planted
}
