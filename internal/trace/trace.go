// Package trace provides the persistence layer of the reproduction: CSV
// export/import of power sample series and generic experiment tables, plus
// JSON round-trips for structured results. The paper's monitoring pipeline
// records traces into a database for the ML components; this package is
// that (file-backed) database.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"davide/internal/sensor"
)

// WriteSamples writes a power sample series as two-column CSV (t, p).
func WriteSamples(w io.Writer, samples []sensor.Sample) error {
	if len(samples) == 0 {
		return errors.New("trace: no samples")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_s", "power_w"}); err != nil {
		return err
	}
	for _, s := range samples {
		if err := cw.Write([]string{
			strconv.FormatFloat(s.T, 'g', -1, 64),
			strconv.FormatFloat(s.P, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSamples parses a CSV sample series written by WriteSamples.
func ReadSamples(r io.Reader) ([]sensor.Sample, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) < 2 {
		return nil, errors.New("trace: no data rows")
	}
	if len(rows[0]) != 2 || rows[0][0] != "t_s" || rows[0][1] != "power_w" {
		return nil, errors.New("trace: unexpected header")
	}
	out := make([]sensor.Sample, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("trace: row %d malformed", i+2)
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+2, err)
		}
		p, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d power: %w", i+2, err)
		}
		out = append(out, sensor.Sample{T: t, P: p})
	}
	return out, nil
}

// Table is a generic experiment result table: a header plus rows, the
// shape every E* experiment prints and EXPERIMENTS.md records.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
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

// MarshalJSON is the canonical JSON form.
func (t *Table) MarshalJSON() ([]byte, error) {
	type alias Table
	return json.Marshal((*alias)(t))
}

// LoadTable parses a JSON table.
func LoadTable(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if t.Title == "" || len(t.Header) == 0 {
		return nil, errors.New("trace: incomplete table")
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return nil, fmt.Errorf("trace: row %d width mismatch", i)
		}
	}
	return &t, nil
}
