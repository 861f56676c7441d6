package report

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:  "Table X: sample",
		Header: []string{"MODEL", "1a", "1b"},
	}
	t.AddRow("DSM", Num(4.0), Num(6000))
	t.AddRow("NSM", Num(math.NaN())) // padded short row
	t.Notes = append(t.Notes, "estimates are best case")
	return t
}

func TestNumFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		4:       "4.000",
		19.7:    "19.70",
		86.9:    "86.90",
		154:     "154.0",
		6000:    "6000",
		0.387:   "0.387",
		-12.345: "-12.35",
		-1234.5: "-1234",
		0.0004:  "0.000",
		999.96:  "1000.0",
	}
	for v, want := range cases {
		if got := Num(v); got != want {
			t.Errorf("Num(%v) = %q, want %q", v, got, want)
		}
	}
	if Num(math.NaN()) != "-" {
		t.Errorf("Num(NaN) = %q", Num(math.NaN()))
	}
	if Int(42) != "42" {
		t.Errorf("Int(42) = %q", Int(42))
	}
}

func TestTextAlignment(t *testing.T) {
	out := sample().Text()
	if !strings.Contains(out, "Table X: sample") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, separator, two rows, one note
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "-----") {
		t.Errorf("separator line missing: %q", lines[2])
	}
	if !strings.Contains(lines[4], "-") {
		t.Error("NaN cell not rendered as -")
	}
	if !strings.Contains(lines[5], "note:") {
		t.Error("note missing")
	}
}

// TestTextMatchesFormatPadding holds Text to the fmt rendering it
// replaced: %-*s pads in runes while the widths count bytes, so a
// multibyte cell is padded short by its extra bytes, as before.
func TestTextMatchesFormatPadding(t *testing.T) {
	tb := sample()
	tb.AddRow("§5.5 skew", "µs", Num(math.Inf(1)))
	tb.AddRow("", Int(-7), Num(-1234.5))
	var want strings.Builder
	fmt.Fprintf(&want, "%s\n", tb.Title)
	w := tb.widths()
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				want.WriteString("  ")
			}
			fmt.Fprintf(&want, "%-*s", w[i], c)
		}
		want.WriteString("\n")
	}
	line(tb.Header)
	sep := make([]string, len(w))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, r := range tb.Rows {
		line(r)
	}
	for _, n := range tb.Notes {
		fmt.Fprintf(&want, "note: %s\n", n)
	}
	if got := tb.Text(); got != want.String() {
		t.Errorf("Text differs from the %%-*s rendering:\n%q\nwant\n%q", got, want.String())
	}
	if got := (&Table{}).Text(); got != "\n\n" {
		t.Errorf("an empty table renders %q, want two empty lines", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { tb.Text() }); allocs > 2 {
		t.Errorf("Text allocates %.0f times, want at most 2 (widths, buffer)", allocs)
	}
}

func TestMarkdown(t *testing.T) {
	out := sample().Markdown()
	for _, want := range []string{"### Table X", "| MODEL | 1a | 1b |", "| --- | --- | --- |", "| DSM |", "*Note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// Pipes in cells must be escaped.
	tb := &Table{Header: []string{"a"}}
	tb.AddRow("x|y")
	if !strings.Contains(tb.Markdown(), `x\|y`) {
		t.Error("pipe not escaped")
	}
}

func TestCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow(`say "hi"`, "1,5")
	out := tb.CSV()
	if !strings.Contains(out, `"say ""hi""","1,5"`) {
		t.Errorf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func TestShortRowPadding(t *testing.T) {
	tb := &Table{Header: []string{"a", "b", "c"}}
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row not padded: %v", tb.Rows[0])
	}
}

func TestChartRendersSeries(t *testing.T) {
	c := &Chart{
		Title:  "test chart",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "up", Points: []Point{{1, 1}, {2, 2}, {3, 3}}},
			{Name: "flat", Points: []Point{{1, 2}, {2, 2}, {3, 2}}},
		},
		Width:  30,
		Height: 8,
	}
	out := c.Text()
	for _, want := range []string{"test chart", "* up", "o flat", "(x)", "y: y"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Both marks must appear in the plot area.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("marks missing")
	}
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if !strings.Contains(c.Text(), "(no data)") {
		t.Error("empty chart not handled")
	}
}

func TestChartLogX(t *testing.T) {
	c := &Chart{
		LogX:   true,
		Series: []Series{{Name: "s", Points: []Point{{100, 1}, {1000, 2}}}},
	}
	out := c.Text()
	if !strings.Contains(out, "log scale") {
		t.Errorf("log axis not labelled:\n%s", out)
	}
	if !strings.Contains(out, "100") || !strings.Contains(out, "1000") {
		t.Errorf("x labels missing:\n%s", out)
	}
}

func TestChartSingularRanges(t *testing.T) {
	// One point, zero span in both axes: must not divide by zero.
	c := &Chart{Series: []Series{{Name: "p", Points: []Point{{5, 0}}}}}
	if out := c.Text(); !strings.Contains(out, "*") {
		t.Errorf("single point not plotted:\n%s", out)
	}
}
