package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// WriteCSV writes the table as RFC 4180 CSV: one header row of column names
// followed by the data rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("stats: writing CSV header: %w", err)
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("stats: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the stable JSON shape of a rendered table.
type tableJSON struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON renders the table as {title, columns, rows}.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{Title: t.Title, Columns: t.Columns, Rows: t.rows})
}

// WriteJSON writes the table as a single JSON object followed by a newline.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// WriteDAT writes the table as a gnuplot-friendly .dat file: a commented
// header naming the columns, then whitespace-separated rows. Cells
// containing spaces are quoted.
func (t *Table) WriteDAT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n#", t.Title); err != nil {
		return err
	}
	for _, c := range t.Columns {
		if _, err := fmt.Fprintf(w, " %q", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, row := range t.rows {
		for i, cell := range row {
			sep := " "
			if i == 0 {
				sep = ""
			}
			if cell == "" {
				cell = "-"
			}
			if containsSpace(cell) {
				if _, err := fmt.Fprintf(w, "%s%q", sep, cell); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(w, "%s%s", sep, cell); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func containsSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return true
		}
	}
	return false
}
