// Package metrics formats experiment results: aligned text tables, CSV,
// and paper-vs-measured comparisons with relative errors.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// New creates a table with the given header.
func New(header ...string) *Table {
	return &Table{Header: header}
}

// Add appends a row; short rows pad, long rows panic (always a caller
// bug).
func (t *Table) Add(cells ...string) {
	if len(cells) > len(t.Header) {
		panic(fmt.Sprintf("metrics: row has %d cells for %d columns", len(cells), len(t.Header)))
	}
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddF appends a row formatting each value with fmt.Sprint.
func (t *Table) AddF(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = FormatFloat(v)
		default:
			s[i] = fmt.Sprint(c)
		}
	}
	t.Add(s...)
}

// FormatFloat renders a float compactly: 2 decimals under 100, 1 under
// 1000, integers above.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting: labels in
// this repository never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// PctString renders a relative error as a signed percentage ("-7.3%").
func PctString(got, want float64) string {
	if want == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (got-want)/want*100)
}
