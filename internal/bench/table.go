package bench

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
)

// Col is one typed column of a Table.
type Col struct {
	// Key names the column in the CSV header, in a Section and in Cell.
	Key string
	// Head, Width and Prec lay the column out in a text grid: the header,
	// the field width (negative left-aligns) and the decimals of a float
	// cell. The CSV prints two decimals more.
	Head        string
	Width, Prec int
	// Metric, when set, gates the column: each row's cell is the BENCH
	// metric named Metric with "{}" replaced by the row's first cell.
	// Unit is that metric's display unit (default "us").
	Metric, Unit string
	// TextOnly columns restate the row (a winner) and stay out of the CSV.
	TextOnly bool
}

// usCol is a column of microsecond times in the figures' usual layout;
// metric gates it when non-empty.
func usCol(key, head, metric string) Col {
	return Col{Key: key, Head: head, Width: 14, Prec: 1, Metric: metric}
}

// Section is one titled text table over a subset of a Table's columns.
type Section struct {
	Title string
	// Cols are the keys of the columns shown, space-separated, in order.
	Cols string
	// Layout, when set, is the printf layout of one row's Cols cells; it
	// replaces the header-and-grid rendering (records and tables whose
	// lines carry units or remarks between the cells).
	Layout string
}

// Table is the result of every experiment: rows of int, float64 or
// string cells under typed columns, the text sections that show them,
// and trailing note lines. The CSV is the row set itself.
type Table struct {
	Cols     []Col
	Rows     [][]any
	Sections []Section
	Notes    []string
}

// col returns the index of the column named key.
func (t *Table) col(key string) int {
	for i, c := range t.Cols {
		if c.Key == key {
			return i
		}
	}
	panic(fmt.Sprintf("bench: table has no column %q", key))
}

// Cell returns the cell of the given row under the column named key.
func (t *Table) Cell(row int, key string) any { return t.Rows[row][t.col(key)] }

// Float is Cell for a numeric column.
func (t *Table) Float(row int, key string) float64 {
	if n, ok := t.Cell(row, key).(int); ok {
		return float64(n)
	}
	return t.Cell(row, key).(float64)
}

// Text renders the sections, a blank line apart, then the notes.
func (t *Table) Text() string {
	var b strings.Builder
	for i, s := range t.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s.Title + "\n")
		var idx []int
		for _, key := range strings.Fields(s.Cols) {
			idx = append(idx, t.col(key))
		}
		sep := func(j int) {
			if j > 0 {
				b.WriteByte(' ')
			}
		}
		if s.Layout == "" {
			for j, c := range idx {
				sep(j)
				fmt.Fprintf(&b, "%*s", t.Cols[c].Width, t.Cols[c].Head)
			}
			b.WriteByte('\n')
		}
		for _, row := range t.Rows {
			if s.Layout != "" {
				cells := make([]any, len(idx))
				for j, c := range idx {
					cells[j] = row[c]
				}
				fmt.Fprintf(&b, s.Layout+"\n", cells...)
				continue
			}
			for j, c := range idx {
				sep(j)
				if f, ok := row[c].(float64); ok {
					fmt.Fprintf(&b, "%*.*f", t.Cols[c].Width, t.Cols[c].Prec, f)
				} else {
					fmt.Fprintf(&b, "%*v", t.Cols[c].Width, row[c])
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range t.Notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}

// CSV renders the row set under the column keys, plot-ready.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	rec := make([]string, 0, len(t.Cols))
	for _, c := range t.Cols {
		if !c.TextOnly {
			rec = append(rec, c.Key)
		}
	}
	w.Write(rec)
	for _, row := range t.Rows {
		rec = rec[:0]
		for i, c := range t.Cols {
			if c.TextOnly {
				continue
			}
			if f, ok := row[i].(float64); ok {
				rec = append(rec, strconv.FormatFloat(f, 'f', c.Prec+2, 64))
			} else {
				rec = append(rec, fmt.Sprint(row[i]))
			}
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}

// Metrics reports every numeric cell of every gated column as a BENCH
// metric; a text cell ("-") says the row has no such value.
func (t *Table) Metrics(emit func(name string, v float64, unit string)) {
	for _, c := range t.Cols {
		if c.Metric == "" {
			continue
		}
		unit := c.Unit
		if unit == "" {
			unit = "us"
		}
		for i, row := range t.Rows {
			if _, text := t.Cell(i, c.Key).(string); text {
				continue
			}
			emit(strings.ReplaceAll(c.Metric, "{}", fmt.Sprint(row[0])), t.Float(i, c.Key), unit)
		}
	}
}
