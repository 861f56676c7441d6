// Package report renders the experiment harness's tables as aligned plain
// text, Markdown or CSV. It is deliberately tiny: a Table is a header row
// plus string cells; formatting of numbers happens at the call site so
// each experiment controls its own precision.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a rectangular grid with a title and a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are appended below the table (substitutions, caveats).
	Notes []string
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Num formats a measurement the way the paper prints its tables: three
// significant digits, fixed notation, "-" for NaN (not applicable).
func Num(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == 0 {
		return "0"
	}
	prec := 3
	switch a := math.Abs(v); {
	case a >= 1000:
		prec = 0
	case a >= 100:
		prec = 1
	case a >= 10:
		prec = 2
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Int formats an integer cell.
func Int(v int) string { return strconv.Itoa(v) }

func (t *Table) widths() []int {
	w := make([]int, len(t.Header))
	for i, h := range t.Header {
		w[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Text renders the table as aligned monospace text: every cell
// left-aligned and padded to its column's width, as %-*s pads (in runes),
// into one buffer sized up front.
func (t *Table) Text() string {
	w := t.widths()
	row := 1 // the newline
	for i, n := range w {
		row += n
		if i > 0 {
			row += 2
		}
	}
	size := len(t.Title) + 1 + row*(len(t.Rows)+2)
	for _, n := range t.Notes {
		size += len("note: \n") + len(n)
	}
	var b strings.Builder
	b.Grow(size)
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			pad(&b, ' ', w[i]-utf8.RuneCountInString(c))
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i := range w {
		if i > 0 {
			b.WriteString("  ")
		}
		pad(&b, '-', w[i])
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// pad writes n copies of c; none when n is not positive.
func pad(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}

// Markdown renders the table as GitHub-flavoured Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note: %s*\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (RFC 4180 quoting for
// cells containing commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(esc(c))
		}
		b.WriteString("\n")
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}
