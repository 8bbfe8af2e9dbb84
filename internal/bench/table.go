package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string // e.g. "Figure 12"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t Table) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	underline := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		underline[i] = strings.Repeat("-", len(c))
	}
	fmt.Fprintln(tw, strings.Join(underline, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v*100) }
func ms(v float64) string   { return fmt.Sprintf("%.1f", v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func f64s(v float64) string { return fmt.Sprintf("%g", v) }
