package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table renders aligned plain-text tables for the experiment reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
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
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as RFC-4180-ish CSV: a title comment line,
// the header, then the rows.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FmtMS formats a duration as milliseconds with adaptive precision, the
// paper's time unit.
func FmtMS(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms == 0:
		return "0"
	case ms < 0.1:
		return fmt.Sprintf("%.3f", ms)
	case ms < 10:
		return fmt.Sprintf("%.2f", ms)
	default:
		return fmt.Sprintf("%.1f", ms)
	}
}

// FmtCount formats large counts compactly.
func FmtCount(x float64) string {
	switch {
	case x >= 1e6:
		return fmt.Sprintf("%.2fM", x/1e6)
	case x >= 1e3:
		return fmt.Sprintf("%.1fK", x/1e3)
	default:
		return fmt.Sprintf("%.1f", x)
	}
}

// FmtSpeedup formats a speedup ratio.
func FmtSpeedup(x float64) string {
	if x >= 100 {
		return fmt.Sprintf("%.0fx", x)
	}
	return fmt.Sprintf("%.2fx", x)
}
