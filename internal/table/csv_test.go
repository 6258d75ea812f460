package table

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := "Country,City,Rate\nGermany,Berlin,63\nEngland,Manchester,78\n"
	tb, err := ReadCSV(strings.NewReader(in), "q")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name != "q" || tb.NumRows() != 2 || tb.NumCols() != 3 {
		t.Fatalf("parsed %dx%d name=%q", tb.NumRows(), tb.NumCols(), tb.Name)
	}
	if tb.Cell(0, 2).Kind() != Int {
		t.Errorf("Rate should infer Int, got %v", tb.Cell(0, 2).Kind())
	}
}

func TestReadCSVRaggedRowsPadded(t *testing.T) {
	in := "a,b,c\n1,2\n1,2,3,4\n"
	tb, err := ReadCSV(strings.NewReader(in), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Cell(0, 2).IsNull() {
		t.Error("short row must be padded with nulls")
	}
	if tb.NumCols() != 3 {
		t.Error("long rows must be truncated to the header arity")
	}
}

func TestReadCSVEmptyInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "e"); err == nil {
		t.Error("empty CSV must error")
	}
}

func TestNumericColumnUnification(t *testing.T) {
	in := "v\n1\n2.5\n3\n"
	tb, err := ReadCSV(strings.NewReader(in), "n")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tb.NumRows(); r++ {
		if tb.Cell(r, 0).Kind() != Float {
			t.Errorf("row %d kind = %v, want Float after unification", r, tb.Cell(r, 0).Kind())
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := New("rt", "name", "n", "f", "flag", "miss", "prod")
	tb.MustAddRow(StringValue("Berlin"), IntValue(1), FloatValue(2.5), BoolValue(true), NullValue(), ProducedNull())
	tb.MustAddRow(StringValue("a,b\"quoted\""), IntValue(-2), FloatValue(0.5), BoolValue(false), NullValue(), ProducedNull())
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Equal(back) {
		t.Errorf("round trip mismatch:\nin:\n%s\nout:\n%s", tb, back)
	}
	if back.Cell(0, 5).Kind() != PNull {
		t.Error("produced null must survive a round trip")
	}
	if back.Cell(0, 4).Kind() != Null {
		t.Error("missing null must survive a round trip")
	}
}

func TestFileAndDirIO(t *testing.T) {
	dir := t.TempDir()
	a := New("a", "x")
	a.MustAddRow(IntValue(1))
	b := New("b", "y")
	b.MustAddRow(StringValue("v"))
	if err := a.WriteCSVFile(filepath.Join(dir, "a.csv")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSVFile(filepath.Join(dir, "b.csv")); err != nil {
		t.Fatal(err)
	}
	// A non-CSV file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tables, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Name != "a" || tables[1].Name != "b" {
		t.Fatalf("LoadDir = %v", tables)
	}
	one, err := ReadCSVFile(filepath.Join(dir, "a.csv"))
	if err != nil || one.Name != "a" {
		t.Fatalf("ReadCSVFile = %v, %v", one, err)
	}
	if _, err := LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadDir on missing dir must error")
	}
	if _, err := ReadCSVFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("ReadCSVFile on missing file must error")
	}
}

// loadDirSequential is LoadDir as a one-file-at-a-time loop, the reference
// the parallel reader must reproduce.
func loadDirSequential(dir string) ([]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("table: read dir %s: %w", dir, err)
	}
	var tables []*Table
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		t, err := ReadCSVFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	return tables, nil
}

// TestLoadDirMatchesSequential pins the parallel LoadDir to the sequential
// loop: the same tables in the same order (upper-case extensions, a
// directory named like a CSV, non-CSV files, and two files that strip to
// one table name included), the same nil result for a directory without
// CSVs, and — with several unreadable files — the same error, the first
// in directory-entry order.
func TestLoadDirMatchesSequential(t *testing.T) {
	write := func(dir, name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for i := 0; i < 40; i++ {
		write(dir, fmt.Sprintf("t%02d.csv", 39-i), fmt.Sprintf("k,v\nrow%d,%d\nx,%d.5\n", i, i, i))
	}
	write(dir, "UPPER.CSV", "a\n1\n")
	write(dir, "dup.csv", "a\nfrom csv\n")
	write(dir, "dup.CSV", "a\nfrom CSV\n")
	write(dir, "notes.txt", "not a table")
	if err := os.Mkdir(filepath.Join(dir, "sub.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	want, wantErr := loadDirSequential(dir)
	if err != nil || wantErr != nil {
		t.Fatalf("LoadDir err %v, sequential err %v", err, wantErr)
	}
	if len(got) != 43 || !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadDir returned %d tables, differs from the sequential load (%d)", len(got), len(want))
	}

	empty := t.TempDir()
	write(empty, "readme.md", "#")
	if got, err := LoadDir(empty); got != nil || err != nil {
		t.Fatalf("LoadDir on a dir without CSVs = %v, %v; want nil, nil", got, err)
	}

	bad := t.TempDir()
	for i := 0; i < 20; i++ {
		write(bad, fmt.Sprintf("ok%02d.csv", i), "a\n1\n")
	}
	write(bad, "m_bad.csv", "a,b\n\"unterminated,1\n")
	write(bad, "c_empty.csv", "")
	write(bad, "x_bad.csv", "a\n\"x\"y\n")
	_, err = LoadDir(bad)
	_, wantErr = loadDirSequential(bad)
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !strings.Contains(err.Error(), "c_empty") {
		t.Fatalf("LoadDir err %v, sequential err %v; want the same first error, from c_empty.csv", err, wantErr)
	}
}
