package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/synth"
	"repro/internal/table"
)

// refLakeTablesResponse is the /v1/lake/tables body as encoding/json sees
// it: the reference the hand-written codec is pinned against.
type refLakeTablesResponse struct {
	Tables  []TableJSON `json:"tables"`
	Missing []string    `json:"missing,omitempty"`
}

// refEncodeLakeTables is the reference writer: EncodeTable per table and
// the same json.Encoder writeJSON runs for every other body.
func refEncodeLakeTables(tables []*table.Table, missing []string) ([]byte, error) {
	resp := refLakeTablesResponse{Tables: make([]TableJSON, 0, len(tables)), Missing: missing}
	for _, t := range tables {
		resp.Tables = append(resp.Tables, EncodeTable(t))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// refParseLakeTables is the reference reader: json.Decoder with UseNumber,
// then DecodeTable per table.
func refParseLakeTables(body []byte) (LakeTables, error) {
	var resp refLakeTablesResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return LakeTables{}, err
	}
	out := LakeTables{Missing: resp.Missing}
	for _, tj := range resp.Tables {
		t, err := tj.DecodeTable()
		out.Tables = append(out.Tables, LakeTable{Name: tj.Name, Table: t, Err: err})
	}
	return out, nil
}

func parseLakeTables(body []byte) (LakeTables, error) {
	return ReadLakeTables(bytes.NewReader(body))
}

func encodeLakeTables(tables []*table.Table, missing []string) ([]byte, error) {
	return lakeTablesBody{tables: tables, missing: missing}.appendJSON(nil)
}

// sameValue reports whether two cells are identical: same kind and same
// payload, floats compared by their bits.
func sameValue(a, b table.Value) bool {
	return a.Kind() == b.Kind() && a.Str() == b.Str() && a.IntVal() == b.IntVal() &&
		math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal()) && a.BoolVal() == b.BoolVal()
}

// diffTables describes the first difference between two tables, or "".
func diffTables(a, b *table.Table) string {
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	case !slices.Equal(a.Columns, b.Columns) || (a.Columns == nil) != (b.Columns == nil):
		return fmt.Sprintf("columns %q vs %q", a.Columns, b.Columns)
	case len(a.Rows) != len(b.Rows) || (a.Rows == nil) != (b.Rows == nil):
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return fmt.Sprintf("row %d: %d cells vs %d", r, len(a.Rows[r]), len(b.Rows[r]))
		}
		for c := range a.Rows[r] {
			if x, y := a.Rows[r][c], b.Rows[r][c]; !sameValue(x, y) {
				return fmt.Sprintf("row %d col %d: %v (%v) vs %v (%v)", r, c, x, x.Kind(), y, y.Kind())
			}
		}
	}
	return ""
}

// diffParse describes the first difference between the codec's parse of a
// body and the reference's, or "": both reject, or both accept with the
// same missing names and, table by table, the same shape error or
// identical tables.
func diffParse(got LakeTables, gotErr error, want LakeTables, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	if !slices.Equal(got.Missing, want.Missing) {
		return fmt.Sprintf("missing %q, reference %q", got.Missing, want.Missing)
	}
	if len(got.Tables) != len(want.Tables) {
		return fmt.Sprintf("%d tables, reference %d", len(got.Tables), len(want.Tables))
	}
	for i, g := range got.Tables {
		w := want.Tables[i]
		if g.Name != w.Name {
			return fmt.Sprintf("table %d: name %q, reference %q", i, g.Name, w.Name)
		}
		if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
			return fmt.Sprintf("table %d: shape error %v, reference %v", i, g.Err, w.Err)
		}
		if (g.Table == nil) != (g.Err != nil) {
			return fmt.Sprintf("table %d: table %v with error %v", i, g.Table, g.Err)
		}
		if g.Err == nil {
			if d := diffTables(g.Table, w.Table); d != "" {
				return fmt.Sprintf("table %d: %s", i, d)
			}
		}
	}
	return ""
}

// hostileTable holds every cell and header the encoder must escape or
// format specially.
func hostileTable() *table.Table {
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		ctl.WriteByte(byte(c))
	}
	strs := []string{
		"", "plain", `quote " and \ backslash`, "<html> & 'apos'", ctl.String(), "\x7f del",
		"line\u2028sep\u2029para", "bad \xff utf8 \xc3", "\xed\xa0\x80 surrogate bytes", "literal \ufffd",
		"emoji 🎉 and ß and ſ", "\\u0041 not an escape", "/slash/",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-6, 9.999999e-7, -1e-6, 1e-7, 1.5e-10, 1e-100,
		1e21, 9.99999e20, -1e21, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 1e20, 100,
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}
	t := table.New("hostile \"table\"\n\u2028", "s\x00", "", "kind", "\xff", "i")
	for i := 0; i < len(strs) || i < len(floats) || i < len(ints); i++ {
		row := []table.Value{table.NullValue(), table.ProducedNull(), table.BoolValue(i%2 == 0), table.StringValue("x")}
		if i < len(strs) {
			row[0] = table.StringValue(strs[i])
		}
		if i < len(floats) {
			row[1] = table.FloatValue(floats[i])
		}
		if i < len(ints) {
			row[3] = table.IntValue(ints[i])
		}
		t.MustAddRow(append(row, table.StringValue(fmt.Sprint(i)))...)
	}
	return t
}

// codecCorpus is the table sets the writer is checked over: the paper's
// tables, the benchmark's lake shapes and hostile edge cases.
func codecCorpus() map[string][]*table.Table {
	paper := append(paperdata.CovidLake(), paperdata.T1(), paperdata.T4(), paperdata.T5(), paperdata.T6(),
		paperdata.Fig3Expected(), paperdata.Fig8aExpected(), paperdata.Fig8bExpected(), paperdata.Fig8dExpected())
	paper = append(paper, paperdata.VaccineSet()...)
	corpus := map[string][]*table.Table{"paper": paper}
	for name, opts := range map[string]synth.LakeOptions{
		"search":   {Seed: 1, Families: 10, TablesPerFamily: 6, RowsPerTable: 40, JoinablePerFamily: 2, NoiseTables: 10},
		"cluster":  {Seed: 1, Families: 20, TablesPerFamily: 6, RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 20},
		"pipeline": {Seed: 2, Families: 4, TablesPerFamily: 4, RowsPerTable: 60, JoinablePerFamily: 2, NoiseTables: 5, NullRate: 0.2},
	} {
		corpus[name] = synth.GenerateLake(opts).Tables
	}
	noCols := &table.Table{Name: "no columns"}
	emptyCols := &table.Table{Name: "empty columns", Columns: []string{}, Rows: [][]table.Value{{}, {}}}
	noRows := table.New("no rows", "a", "b")
	corpus["hostile"] = []*table.Table{hostileTable(), noCols, emptyCols, noRows}
	return corpus
}

// TestLakeTablesBodyMatchesEncoder pins the writer to the reference byte
// for byte, and the reader to the reference on what the writer produced.
func TestLakeTablesBodyMatchesEncoder(t *testing.T) {
	for name, tables := range codecCorpus() {
		for _, missing := range [][]string{nil, {}, {"gone", "\u2028\"odd\"\xff"}} {
			for _, set := range [][]*table.Table{tables, tables[:1], nil} {
				got, err := encodeLakeTables(set, missing)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := refEncodeLakeTables(set, missing)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s (%d tables, missing %q): body differs from byte %d:\n got %q\nwant %q",
						name, len(set), missing, i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
				}
				gotParse, gotErr := parseLakeTables(got)
				wantParse, wantErr := refParseLakeTables(want)
				if d := diffParse(gotParse, gotErr, wantParse, wantErr); d != "" {
					t.Fatalf("%s: parse: %s", name, d)
				}
				if gotErr != nil {
					t.Fatalf("%s: parse: %v", name, gotErr)
				}
			}
		}
	}
}

// TestLakeTablesBodyNonFinite: a NaN or ±Inf cell fails the writer with
// the error encoding/json reports, first such cell in body order.
func TestLakeTablesBodyNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		tb := table.New("nf", "a", "b")
		tb.MustAddRow(table.FloatValue(1), table.StringValue("x"))
		tb.MustAddRow(table.FloatValue(f), table.FloatValue(math.Inf(-1)))
		_, err := encodeLakeTables([]*table.Table{paperdata.T1(), tb}, nil)
		_, want := refEncodeLakeTables([]*table.Table{paperdata.T1(), tb}, nil)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v: error %v, reference %v", f, err, want)
		}
	}
}

// hostileBodies are response bodies the reader must judge exactly as the
// reference does: syntax at every position, JSON's type rules, duplicate
// and case-folded keys, nulls, reused list elements, shape errors.
var hostileBodies = []string{
	``, ` `, `null`, `nullx`, `null {`, `nul`, `nulx`, `{}`, `{} trailing garbage`, `{}}`, ` {"tables":[]} `,
	`[]`, `"s"`, `5`, `true`, `{`, `{"tables"`, `{"tables":`, `{"tables":[`, `{"tables":[]`, `{"tables":[],}`,
	`{"tables":[,]}`, `{,}`, `{"tables" []}`, `{'tables':[]}`, `{tables:[]}`, "\ufeff{}",
	`{"tables":null}`, `{"tables":{}}`, `{"tables":5}`, `{"tables":"x"}`, `{"tables":[5]}`, `{"tables":[[]]}`,
	`{"tables":[null]}`, `{"tables":[null,{"name":"a"}]}`, `{"tables":[{}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[1],[2.5],[null],[true],["s"]]}]}`,
	`{"TABLES":[{"NAME":"a","Columns":["x"],"ROWS":[[1]]}],"Missing":["m"]}`,
	`{"tableſ":[{"name":"a","columnſ":["x"],"rowſ":[[1]]}],"miſſing":["m"]}`,
	`{"t\u0061bles":[{"n\u0061me":"a"}]}`, `{"tab\u006Ces":[]}`, `{"tablés":[{"name":"a"}]}`,
	`{"tables":[{"name":"a"}],"tables":[{"name":"b"}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[1]]}],"tables":[{}]}`,
	`{"tables":[{"name":"a","columns":["x","y"]}],"tables":[{"columns":[null]}]}`,
	`{"tables":[{"name":"a"},{"name":"b","rows":[[1]]}],"tables":[{}],"tables":[{},{}]}`,
	`{"tables":[{"name":"a"},{"name":"b"}],"tables":[],"tables":[{},{}]}`,
	`{"tables":[{"name":"a"},{"name":"b"}],"tables":null,"tables":[{},{}]}`,
	`{"tables":[{"name":"a","columns":["x","y"],"rows":[[1,2]]}],"tables":[{"columns":[null,null,null],"rows":[[1,2,3]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"columns":[]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"columns":null}]}`,
	`{"tables":[{"name":"a","name":null}]}`, `{"tables":[{"name":null}]}`, `{"tables":[{"name":5}]}`,
	`{"tables":[{"name":{}}]}`, `{"tables":[{"name":[]}]}`, `{"tables":[{"columns":[5]}]}`, `{"tables":[{"columns":"x"}]}`,
	`{"tables":[{"rows":5}]}`, `{"tables":[{"rows":[5]}]}`, `{"tables":[{"rows":["x"]}]}`, `{"tables":[{"rows":[{}]}]}`,
	`{"tables":[{"name":"a","rows":[null]}]}`, `{"tables":[{"name":"a","columns":["x"],"rows":[null]}]}`,
	`{"tables":[{"name":"a","rows":[[]]}]}`, `{"tables":[{"name":"a","rows":[]}]}`, `{"tables":[{"name":"a","rows":null}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[1,2]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[{}]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[[1]]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[1e400]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[-1e400]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[{}],[1,2]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[1,2],[{}]]}]}`,
	`{"tables":[{"name":"a","columns":["x","y"],"rows":[[1,{}],[[],2]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[{}]],"rows":[[1]]}]}`,
	`{"tables":[{"name":"a","rows":[[1]],"columns":["x"]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[{"k":[1,{"z":null}]}]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[{"k":}]]}]}`,
	`{"tables":[{"name":"ok","columns":["x"],"rows":[[1]]},{"name":"bad","columns":["x"],"rows":[[1,2]]}]}`,
	`{"tables":[{"name":"a","columns":["x"],"rows":[[0],[-0],[0.0],[-0.0],[1E3],[1e+3],[1e-3],[0.1e2],[9223372036854775807],[9223372036854775808],[-9223372036854775808],[-9223372036854775809],[123456789012345678901234567890],[4.9e-324],[1e-400]]}]}`,
	`{"tables":[{"rows":[[01]]}]}`, `{"tables":[{"rows":[[1.]]}]}`, `{"tables":[{"rows":[[.5]]}]}`, `{"tables":[{"rows":[[-]]}]}`,
	`{"tables":[{"rows":[[+1]]}]}`, `{"tables":[{"rows":[[1e]]}]}`, `{"tables":[{"rows":[[1e+]]}]}`, `{"tables":[{"rows":[[0x1]]}]}`,
	`{"tables":[{"rows":[[NaN]]}]}`, `{"tables":[{"rows":[[Infinity]]}]}`, `{"tables":[{"rows":[[tru]]}]}`, `{"tables":[{"rows":[[nulll]]}]}`,
	`{"tables":[{"rows":[[1 2]]}]}`, `{"tables":[{"rows":[[1,]]}]}`, `{"tables":[{"rows":[[1]]]}]}`,
	"{\"tables\":[{\"name\":\"tab\there\"}]}", "{\"tables\":[{\"name\":\"nl\nhere\"}]}", "{\"tables\":[{\"name\":\"del\x7fhere\"}]}",
	`{"tables":[{"name":"esc \" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u2028 \uFFFD"}]}`,
	`{"tables":[{"name":"\ud83c\udf89 pair"}]}`, `{"tables":[{"name":"\ud83c lone high"}]}`, `{"tables":[{"name":"\udf89 lone low"}]}`,
	`{"tables":[{"name":"\ud83c\u0041 high then bmp"}]}`, `{"tables":[{"name":"\ud83c\ud83c two highs"}]}`,
	`{"tables":[{"name":"\ud83c\\u0041"}]}`, `{"tables":[{"name":"\u12"}]}`, `{"tables":[{"name":"\u12G4"}]}`,
	`{"tables":[{"name":"\x"}]}`, `{"tables":[{"name":"\'"}]}`, `{"tables":[{"name":"unterminated}]}`,
	"{\"tables\":[{\"name\":\"bad \xff\xfe utf8 \xc3\"}]}", "{\"tables\":[{\"name\":\"\xed\xa0\x80\"}]}",
	"{\"tables\":[],\"missing\":[\"\xff\",null,\"b\"]}",
	`{"missing":["a","b"],"missing":[null,null,null]}`, `{"missing":["a"],"missing":[]}`, `{"missing":[1]}`,
	`{"missing":null}`, `{"missing":{}}`, `{"unknown":{"deep":[1,2,{"x":null}]},"tables":[]}`,
	`{"unknown":[1,2,}`, `{"unknown":tru}`, `{"tables":[{"unknown":[[[]]],"name":"a"}]}`,
	"{\"tables\"\t:\r\n[ { \"name\" : \"ws\" , \"columns\" : [ \"x\" ] , \"rows\" : [ [ 1 ] ] } ] }",
}

// deepBody nests n arrays inside an unknown key of a valid body.
func deepBody(n int) string {
	return `{"deep":` + strings.Repeat("[", n-1) + strings.Repeat("]", n-1) + `,"tables":[]}`
}

// TestParseLakeTablesMatchesReference checks the reader against the
// reference over the hostile bodies, nesting at encoding/json's limit, and
// every prefix of a real body.
func TestParseLakeTablesMatchesReference(t *testing.T) {
	bodies := append([]string(nil), hostileBodies...)
	bodies = append(bodies, deepBody(maxDepth), deepBody(maxDepth+1))
	real, err := encodeLakeTables([]*table.Table{hostileTable(), paperdata.T1()}, []string{"gone"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range real {
		bodies = append(bodies, string(real[:i]))
	}
	bodies = append(bodies, string(real), string(real)+"garbage")
	accepted := 0
	for _, body := range bodies {
		got, gotErr := parseLakeTables([]byte(body))
		want, wantErr := refParseLakeTables([]byte(body))
		if d := diffParse(got, gotErr, want, wantErr); d != "" {
			t.Errorf("body %.200q: %s", body, d)
		}
		if gotErr == nil {
			accepted++
		}
	}
	if accepted < 40 || accepted > len(bodies)-len(real) {
		t.Errorf("%d of %d bodies accepted: the corpus no longer covers both sides", accepted, len(bodies))
	}
}

// TestParseLakeTablesCopiesStrings: no string the reader returns shares
// memory with its read buffer, so overwriting the buffer (as the next
// pooled read does) changes nothing.
func TestParseLakeTablesCopiesStrings(t *testing.T) {
	body, err := encodeLakeTables([]*table.Table{hostileTable()}, []string{"gone"})
	if err != nil {
		t.Fatal(err)
	}
	p := new(bodyParser)
	p.buf.Write(body)
	got, err := p.parse(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refParseLakeTables(body)
	for i, b := 0, p.buf.Bytes(); i < len(b); i++ {
		b[i] = 'X'
	}
	if d := diffParse(got, nil, want, nil); d != "" {
		t.Fatalf("result changed with the read buffer: %s", d)
	}
}

// TestLakeTablesEndpointBytes serves a lake over HTTP and compares the
// /v1/lake/tables response with the reference writer's bytes, missing
// names included.
func TestLakeTablesEndpointBytes(t *testing.T) {
	tables := append(paperdata.CovidLake(), hostileTable())
	p, err := core.New(tables, core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, Config{}).Handler())
	defer ts.Close()
	names := []string{hostileTable().Name, "nope", tables[0].Name, "\u2028"}
	resp := postJSON(t, ts.URL+"/v1/lake/tables", LakeTablesRequest{Names: names})
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, %v: %s", resp.StatusCode, err, got)
	}
	want, err := refEncodeLakeTables([]*table.Table{hostileTable(), tables[0]}, []string{"nope", "\u2028"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("body\n got %q\nwant %q", got, want)
	}
}

// TestLakeTablesEndpointNonFinite: a lake table holding +Inf (CSV "Inf"
// parses to a Float) answers with the 500 envelope writeJSON gives any
// unrepresentable response.
func TestLakeTablesEndpointNonFinite(t *testing.T) {
	inf := table.New("inf", "city", "v")
	inf.MustAddRow(table.StringValue("Berlin"), table.Parse("Inf"))
	l, err := lake.New([]*table.Table{paperdata.T2(), inf}, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(core.FromLake(l), Config{}).Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/lake/tables", LakeTablesRequest{Names: []string{"T2", "inf"}})
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `{"error":"response not representable as JSON: json: unsupported value: +Inf","status":500}` + "\n"
	if resp.StatusCode != http.StatusInternalServerError || string(got) != want {
		t.Fatalf("status %d body %q, want 500 %q", resp.StatusCode, got, want)
	}
}

// FuzzLakeTablesBodyMatchesReference feeds arbitrary bodies to the reader
// and the reference: same accept/reject decision, same shape errors, same
// tables. An accepted body's tables are written back by both writers,
// which must agree byte for byte, and the raw input doubles as a name,
// header and cell so the writer also sees invalid UTF-8.
func FuzzLakeTablesBodyMatchesReference(f *testing.F) {
	for _, b := range hostileBodies {
		f.Add([]byte(b))
	}
	real, err := encodeLakeTables([]*table.Table{hostileTable(), paperdata.T1()}, []string{"gone"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := parseLakeTables(body)
		want, wantErr := refParseLakeTables(body)
		if d := diffParse(got, gotErr, want, wantErr); d != "" {
			t.Fatalf("body %q: %s", body, d)
		}
		raw := table.New(string(body), string(body))
		raw.MustAddRow(table.StringValue(string(body)))
		tables := []*table.Table{raw}
		for _, lt := range got.Tables {
			if lt.Err == nil {
				tables = append(tables, lt.Table)
			}
		}
		enc, err := encodeLakeTables(tables, got.Missing)
		ref, refErr := refEncodeLakeTables(tables, got.Missing)
		if err != nil || refErr != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("re-encode of %q: %v / %v\n got %q\nwant %q", body, err, refErr, enc, ref)
		}
	})
}
