// Package corpus models table-column corpora for Auto-Detect and provides
// the synthetic web-table generator that substitutes for the paper's
// proprietary corpora (350M Bing web-table columns, 1.4M public Excel
// columns, 30M Wikipedia columns, 3.2M enterprise Excel columns — none of
// which are released).
//
// The generator reproduces the property the algorithm exploits: value
// formats that are *globally compatible* in real tables (plain integers,
// comma-separated integers, floats, ...) co-occur freely within generated
// columns, while *incompatible* formats (different date formats, phone
// formats, units, ...) never mix within a clean column — each clean column
// commits to a single format of its family. Test corpora additionally plant
// labeled errors of the kinds shown in Figures 1 and 2 of the paper.
package corpus

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Column is a single table column.
type Column struct {
	// Name is an optional header.
	Name string
	// Domain is the generator domain the column was drawn from (empty for
	// loaded real data).
	Domain string
	// Values are the cell values, in row order.
	Values []string
	// Dirty lists the indices of known-injected errors. nil means the
	// column carries no ground-truth labels; an empty non-nil slice means
	// the column is known clean.
	Dirty []int
	// Source identifies where the column came from — a database driver
	// name, "csv", "gen" — and Table the container within that source.
	// Both are optional provenance that audit findings carry through to
	// results, so a bad cell reports which table it lives in, not just
	// the column name.
	Source string
	Table  string
}

// IsDirty reports whether row i is a labeled error.
func (c *Column) IsDirty(i int) bool {
	for _, d := range c.Dirty {
		if d == i {
			return true
		}
	}
	return false
}

// Labeled reports whether the column carries ground-truth labels.
func (c *Column) Labeled() bool { return c.Dirty != nil }

// DistinctValues returns the distinct values of the column in first-seen
// order.
func (c *Column) DistinctValues() []string {
	seen := make(map[string]struct{}, len(c.Values))
	out := make([]string, 0, len(c.Values))
	for _, v := range c.Values {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Corpus is a collection of columns.
type Corpus struct {
	// Name identifies the corpus (WEB, WIKI, ...).
	Name string
	// Columns are the member columns.
	Columns []*Column
}

// NumColumns returns the number of columns.
func (c *Corpus) NumColumns() int { return len(c.Columns) }

// NumValues returns the total number of cells.
func (c *Corpus) NumValues() int {
	n := 0
	for _, col := range c.Columns {
		n += len(col.Values)
	}
	return n
}

// DirtyColumns returns the number of columns with at least one labeled
// error.
func (c *Corpus) DirtyColumns() int {
	n := 0
	for _, col := range c.Columns {
		if len(col.Dirty) > 0 {
			n++
		}
	}
	return n
}

// ReadCSV extracts the columns of a CSV table. If hasHeader is true the
// first record provides column names; otherwise columns are named col0,
// col1, ...
//
// The loader is hardened against the messy-file artifacts that otherwise
// silently skew per-column value counts: a UTF-8 byte-order mark is
// stripped before parsing (a BOM glued to the first header or value would
// mint a spurious distinct pattern), ragged short rows are padded with
// empty cells so every column keeps row-aligned values (without padding, a
// short row shifts every later value of the trailing columns up a row), and
// trailing columns that contain no data at all — the phantom columns minted
// by a trailing comma on every row — are dropped.
func ReadCSV(r io.Reader, hasHeader bool) ([]*Column, error) {
	return ReadTable(r, ',', hasHeader)
}

// ParseError is the typed failure of ReadTable/ReadCSV: parsing stopped at
// byte Offset of the input (after any BOM), wrapping the underlying CSV or
// I/O error. Callers classify it — a quarantine manifest records the offset,
// and a transient read error buried under it is still retryable through
// errors.Is/As on the wrapped cause.
type ParseError struct {
	// Offset is the byte position in the input where parsing failed.
	Offset int64
	// Err is the underlying csv.ParseError or reader error.
	Err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("corpus: parse error at byte %d: %v", e.Offset, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ReadTable is ReadCSV with a configurable field delimiter (',' for CSV,
// '\t' for TSV), sharing the same BOM/ragged-row/phantom-column hardening.
// Malformed input never panics: the result is either the parsed columns or
// a *ParseError carrying the byte offset of the failure.
func ReadTable(r io.Reader, comma rune, hasHeader bool) ([]*Column, error) {
	in, bomLen := stripBOM(r)
	cr := csv.NewReader(in)
	cr.Comma = comma
	cr.FieldsPerRecord = -1
	var recs [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, &ParseError{Offset: bomLen + cr.InputOffset(), Err: err}
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, nil
	}
	width := 0
	for _, rec := range recs {
		if len(rec) > width {
			width = len(rec)
		}
	}
	cols := make([]*Column, width)
	start := 0
	for i := range cols {
		cols[i] = &Column{Name: fmt.Sprintf("col%d", i)}
	}
	if hasHeader {
		for i, h := range recs[0] {
			if h = strings.TrimSpace(h); h != "" {
				cols[i].Name = h
			}
		}
		start = 1
	}
	for _, rec := range recs[start:] {
		for i := 0; i < width; i++ {
			v := ""
			if i < len(rec) {
				v = rec[i]
			}
			cols[i].Values = append(cols[i].Values, v)
		}
	}
	// Drop trailing all-empty columns: no header text and no cell content.
	for len(cols) > 0 {
		last := cols[len(cols)-1]
		if hasHeader && last.Name != fmt.Sprintf("col%d", len(cols)-1) {
			break
		}
		empty := true
		for _, v := range last.Values {
			if v != "" {
				empty = false
				break
			}
		}
		if !empty {
			break
		}
		cols = cols[:len(cols)-1]
	}
	return cols, nil
}

// stripBOM removes a leading UTF-8 byte-order mark, which spreadsheet
// exports routinely prepend, reporting how many bytes it consumed so parse
// offsets stay anchored to the raw input.
func stripBOM(r io.Reader) (io.Reader, int64) {
	br := bufio.NewReader(r)
	if lead, err := br.Peek(3); err == nil && lead[0] == 0xEF && lead[1] == 0xBB && lead[2] == 0xBF {
		br.Discard(3)
		return br, 3
	}
	return br, 0
}

// WriteCSV writes the columns as a CSV table with a header row. Columns of
// unequal length are padded with empty cells.
func WriteCSV(w io.Writer, cols []*Column) error {
	cw := csv.NewWriter(w)
	hdr := make([]string, len(cols))
	rows := 0
	for i, c := range cols {
		hdr[i] = c.Name
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	if err := cw.Write(hdr); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for r := 0; r < rows; r++ {
		for i, c := range cols {
			if r < len(c.Values) {
				rec[i] = c.Values[r]
			} else {
				rec[i] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
