// Package bench regenerates every table and figure of the paper's
// evaluation section (§6): Table 1 (benchmark attacks foiled), Table 2
// (real-world vulnerabilities), Table 3 (configuration), Fig. 5 (response
// modes), Fig. 6 (normalized application performance), Fig. 7 (context-
// switch stress), Fig. 8 (Apache vs. page size) and Fig. 9 (fractional
// splitting). Each experiment returns structured results plus a plain-text
// rendering comparable to the paper's presentation.
package bench

import (
	"fmt"
	"strings"
)

// Table is a generic text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Series is one named line of a figure.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Figure is a set of series with a caption.
type Figure struct {
	Title  string
	YLabel string
	Series []Series
	Notes  []string
}

// barWidth is the longest ASCII bar Render draws.
const barWidth = 40

// Render formats the figure as a table of values plus ASCII bars. Bars of
// normalized values (at most 1.0) keep one scale, 1.0 = barWidth; a series
// whose maximum exceeds 1 is scaled so that maximum is barWidth.
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "  %s:\n", s.Name)
		scale := 1.0
		for _, v := range s.Values {
			scale = max(scale, v)
		}
		for i, v := range s.Values {
			label := ""
			if i < len(s.Labels) {
				label = s.Labels[i]
			}
			bar := strings.Repeat("#", int(v/scale*barWidth+0.5))
			fmt.Fprintf(&sb, "    %-14s %6.3f  %s\n", label, v, bar)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func check(v bool) string {
	if v {
		return "yes"
	}
	return "NO"
}
