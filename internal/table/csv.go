package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/par"
)

// ReadCSV parses CSV from r into a table. The first record is taken as the
// header row. Cells are typed with Parse, then each column is normalized:
// if a column mixes Int and Float values, the ints are promoted to floats so
// the column has one numeric type (mirroring pandas' column dtype
// unification, which the paper's prototype relies on).
func ReadCSV(r io.Reader, name string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // open data is ragged; we pad/truncate below
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: read csv %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("table: read csv %q: empty input", name)
	}
	header := records[0]
	t := New(name, header...)
	for _, rec := range records[1:] {
		row := make([]Value, len(header))
		for i := range row {
			if i < len(rec) {
				row[i] = Parse(rec[i])
			} else {
				row[i] = NullValue()
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.normalizeNumericColumns()
	return t, nil
}

// normalizeNumericColumns promotes Int cells to Float in columns that
// contain at least one Float, so each column carries a single numeric kind.
func (t *Table) normalizeNumericColumns() {
	for c := 0; c < t.NumCols(); c++ {
		hasFloat := false
		for _, row := range t.Rows {
			if row[c].Kind() == Float {
				hasFloat = true
				break
			}
		}
		if !hasFloat {
			continue
		}
		for _, row := range t.Rows {
			if row[c].Kind() == Int {
				row[c] = FloatValue(float64(row[c].IntVal()))
			}
		}
	}
}

// WriteCSV writes the table as CSV: a header row followed by data rows.
// Missing nulls become empty fields; produced nulls are written as "⊥" so a
// round trip preserves the null kind.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("table: write csv %q: %w", t.Name, err)
	}
	rec := make([]string, t.NumCols())
	for _, row := range t.Rows {
		for i, v := range row {
			switch v.Kind() {
			case Null:
				rec[i] = ""
			default:
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: write csv %q: %w", t.Name, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("table: write csv %q: %w", t.Name, err)
	}
	return nil
}

// ReadCSVFile reads one CSV file; the table is named after the file's base
// name without extension.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("table: open %s: %w", path, err)
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return ReadCSV(f, name)
}

// WriteCSVFile writes the table to path, creating parent directories.
func (t *Table) WriteCSVFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("table: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("table: create %s: %w", path, err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("table: close %s: %w", path, err)
	}
	return nil
}

// LoadDir reads every *.csv file in dir (non-recursively) and returns the
// tables sorted by name, as a data-lake loading convenience. Files are read
// in parallel into slots indexed by directory-entry order, so the result —
// and, when several files fail, the error returned (the first in
// directory-entry order) — is the same as reading them one by one.
func LoadDir(dir string) ([]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("table: read dir %s: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	if len(paths) == 0 {
		return nil, nil
	}
	tables := make([]*Table, len(paths))
	errs := make([]error, len(paths))
	par.For(len(paths), func(i int) {
		tables[i], errs[i] = ReadCSVFile(paths[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	return tables, nil
}
