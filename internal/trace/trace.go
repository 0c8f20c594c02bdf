// Package trace holds the result table every cmd/expgen experiment fills
// and prints, as CSV or as a markdown table.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
)

// Table is one experiment's result: a title, a header and rows of cells,
// the shape every E* experiment of cmd/expgen prints.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, header ...string) (*Table, error) {
	if title == "" {
		return nil, errors.New("trace: empty table title")
	}
	if len(header) == 0 {
		return nil, errors.New("trace: table needs columns")
	}
	return &Table{Title: title, Header: header}, nil
}

// AddRow appends one row; the cell count must match the header.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Header) {
		return fmt.Errorf("trace: row has %d cells, header has %d", len(cells), len(t.Header))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
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

// WriteMarkdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	if err := writeMDRow(w, t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if err := writeMDRow(w, sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeMDRow(w, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func writeMDRow(w io.Writer, cells []string) error {
	if _, err := fmt.Fprint(w, "| "); err != nil {
		return err
	}
	for i, c := range cells {
		if i > 0 {
			if _, err := fmt.Fprint(w, " | "); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, c); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, " |")
	return err
}
