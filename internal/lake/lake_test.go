package lake

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/tokenize"
)

func demoLake(t *testing.T) *Lake {
	t.Helper()
	l, err := New(paperdata.CovidLake(), Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewBuildsAllIndexes(t *testing.T) {
	l := demoLake(t)
	if l.Size() != 2 {
		t.Fatalf("size = %d", l.Size())
	}
	if l.Santos() == nil || l.Join() == nil || l.Josie() == nil {
		t.Fatal("indexes missing")
	}
	if l.Santos().NumTables() != 2 {
		t.Error("santos index incomplete")
	}
	// Domains: T2 has City+Country textual; T3 has City. Rate/cases are
	// textual strings too ("83%", "1.4M") — so expect at least 3 domains.
	if len(l.Domains()) < 3 {
		t.Errorf("domains = %d", len(l.Domains()))
	}
	if _, ok := l.Get("T3"); !ok {
		t.Error("Get(T3) failed")
	}
	if _, ok := l.Get("nope"); ok {
		t.Error("Get(nope) should fail")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]*table.Table{nil}, Options{}); err == nil {
		t.Error("nil table must error")
	}
	if _, err := New([]*table.Table{table.New("")}, Options{}); err == nil {
		t.Error("empty name must error")
	}
	dup := []*table.Table{table.New("x", "a"), table.New("x", "b")}
	if _, err := New(dup, Options{}); err == nil {
		t.Error("duplicate names must error")
	}
	empty, err := New(nil, Options{})
	if err != nil || empty.Size() != 0 {
		t.Error("empty lake must build")
	}
}

func TestSynthesizeKBOption(t *testing.T) {
	l, err := New(paperdata.CovidLake(), Options{SynthesizeKB: true})
	if err != nil {
		t.Fatal(err)
	}
	// The synthesized KB knows the lake's own values.
	if !l.Knowledge().HasEntity("berlin") {
		t.Error("synthesized KB should know lake values")
	}
	merged, err := New(paperdata.CovidLake(), Options{Knowledge: kb.Demo(), SynthesizeKB: true})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Knowledge().HasEntity("berlin") || !merged.Knowledge().SameEntity("USA", "United States") {
		t.Error("merged KB must keep curated aliases and synthesized entities")
	}
}

func TestFromDir(t *testing.T) {
	dir := t.TempDir()
	for _, tb := range paperdata.CovidLake() {
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	l, err := FromDir(dir, Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 2 {
		t.Errorf("FromDir size = %d", l.Size())
	}
	if _, err := FromDir(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Error("missing dir must error")
	}
	emptyDir := t.TempDir()
	if _, err := FromDir(emptyDir, Options{}); err == nil {
		t.Error("dir without CSVs must error")
	}
}

func TestQueryDomain(t *testing.T) {
	q := paperdata.T1()
	d, err := QueryDomain(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || d[0] != "berlin" {
		t.Errorf("QueryDomain = %v", d)
	}
	if _, err := QueryDomain(q, 9); err == nil {
		t.Error("out of range must error")
	}
}

// TestQueryDomainMatchesValueSet pins QueryDomain to its defining
// expression, tokenize.ValueSet(DistinctStrings): same members, same
// order, on nulls of both kinds, mixed kinds that render alike, values
// that normalize to empty and values that collide after normalization.
// The lake's own domains come from the same extractor, so DomainFor's
// values must match it too.
func TestQueryDomainMatchesValueSet(t *testing.T) {
	cells := []table.Value{
		table.NullValue(), table.ProducedNull(),
		table.IntValue(7), table.StringValue("7"), table.FloatValue(7), table.StringValue(" 7 "),
		table.BoolValue(true), table.StringValue("true"), table.StringValue("TRUE"),
		table.StringValue(""), table.StringValue("--"), table.StringValue("!!!"), table.StringValue("   "),
		table.StringValue("Alice"), table.StringValue(" alice"), table.StringValue("ALICE!"),
		table.StringValue("x-ray"), table.StringValue("x ray"), table.FloatValue(2.5), table.StringValue("2.5"),
	}
	rng := rand.New(rand.NewSource(1))
	var tables []*table.Table
	for i := 0; i < 40; i++ {
		tb := table.New(fmt.Sprintf("q%d", i), "a", "b", "c")
		for r := 0; r < rng.Intn(12); r++ {
			tb.MustAddRow(cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))])
		}
		tables = append(tables, tb)
	}
	all := table.New("all", "v")
	for _, v := range cells {
		all.MustAddRow(v)
	}
	tables = append(tables, all)
	for _, tb := range tables {
		for c := 0; c < tb.NumCols(); c++ {
			got, err := QueryDomain(tb, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := tokenize.ValueSet(tb.DistinctStrings(c)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s col %d: QueryDomain = %q, want %q", tb.Name, c, got, want)
			}
		}
	}
	l, err := New(tables, Options{Knowledge: kb.New()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for c := 0; c < tb.NumCols(); c++ {
			if d := l.DomainFor(tb.Name, c); d != nil {
				if want, _ := QueryDomain(tb, c); !reflect.DeepEqual(d.Values, want) {
					t.Fatalf("%s col %d: lake domain %q, QueryDomain %q", tb.Name, c, d.Values, want)
				}
			}
		}
	}
}

// TestFromDirErrorPaths covers the loading failures FromDir must surface:
// an unreadable directory (a plain file in its place), malformed CSV
// content, and duplicate table names from files whose base names collide
// after extension stripping.
func TestFromDirErrorPaths(t *testing.T) {
	base := t.TempDir()

	notADir := filepath.Join(base, "file.txt")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDir(notADir, Options{}); err == nil {
		t.Error("FromDir over a plain file must error")
	}

	malformed := filepath.Join(base, "malformed")
	if err := os.Mkdir(malformed, 0o755); err != nil {
		t.Fatal(err)
	}
	// An unterminated quote is a csv.Reader parse error.
	if err := os.WriteFile(filepath.Join(malformed, "bad.csv"), []byte("a,b\n\"unterminated,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDir(malformed, Options{}); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("malformed CSV error = %v, want mention of the file", err)
	}

	empty := filepath.Join(base, "emptyfile")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(empty, "zero.csv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDir(empty, Options{}); err == nil {
		t.Error("zero-byte CSV must error")
	}

	dup := filepath.Join(base, "dup")
	if err := os.Mkdir(dup, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.csv", "t.CSV"} {
		if err := os.WriteFile(filepath.Join(dup, name), []byte("City\nBerlin\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FromDir(dup, Options{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate table names error = %v", err)
	}

	if os.Geteuid() != 0 {
		locked := filepath.Join(base, "locked")
		if err := os.Mkdir(locked, 0o000); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(locked, 0o755)
		if _, err := FromDir(locked, Options{}); err == nil {
			t.Error("unreadable dir must error")
		}
	}
}
