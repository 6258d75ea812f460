// Package serve is DIALITE's HTTP face: the paper presents the pipeline as
// a web-served demonstration system (Fig. 1 runs behind an interactive UI),
// and this package is the production shape of that idea — JSON endpoints
// for every pipeline stage (discover, integrate, end-to-end pipeline,
// correlation, entity resolution) and for lake mutation (add/remove),
// served concurrently against one mutable lake.
//
// Every request runs under a context with a per-request timeout; the
// context-first pipeline API propagates cancellation into the index scans,
// the FD closure and the ER pair loop, so an expired or client-cancelled
// query stops computing mid-stage instead of occupying a worker until it
// finishes. Lake mutations are the exception: they are transactional and
// run to completion once started (the deadline is checked before the
// mutation begins). Entity resolution runs request-scoped
// (kb.Annotator.ERScope via core.Pipeline.ResolveEntities), so serving
// unrelated user tables does not grow server memory. Errors are structured
// JSON; shutdown is graceful.
package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/table"
)

// TableJSON is the wire form of a table: column headers plus row-major
// cells. Cells map JSON-natively — null, bool, number (integral numbers
// decode as Int, others as Float) and string. Both null kinds render as
// JSON null; the missing/produced distinction (± vs ⊥) is presentational
// and does not survive the wire, which no integration or resolution
// *semantics* depend on (nulls of either kind never join, never conflict
// and block nothing).
type TableJSON struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// EncodeTable converts a table to its wire form.
func EncodeTable(t *table.Table) TableJSON {
	out := TableJSON{Name: t.Name, Columns: t.Columns, Rows: make([][]any, 0, t.NumRows())}
	for _, row := range t.Rows {
		r := make([]any, len(row))
		for i, v := range row {
			r[i] = encodeValue(v)
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

func encodeValue(v table.Value) any {
	switch v.Kind() {
	case table.String:
		return v.Str()
	case table.Int:
		return v.IntVal()
	case table.Float:
		return v.FloatVal()
	case table.Bool:
		return v.BoolVal()
	default: // both null kinds
		return nil
	}
}

// DecodeTable converts a wire table into the engine's form, validating
// shape: every row must have exactly len(Columns) cells and every cell must
// be null, bool, number or string.
func (tj TableJSON) DecodeTable() (*table.Table, error) {
	t := table.New(tj.Name, tj.Columns...)
	for ri, row := range tj.Rows {
		if len(row) != len(tj.Columns) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, want %d", tj.Name, ri, len(row), len(tj.Columns))
		}
		vals := make([]table.Value, len(row))
		for ci, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return nil, fmt.Errorf("table %q: row %d, column %d: %w", tj.Name, ri, ci, err)
			}
			vals[ci] = v
		}
		t.Rows = append(t.Rows, vals)
	}
	return t, nil
}

// decodeValue maps a decoded JSON cell to a Value. Numbers arrive as
// json.Number (the request decoder enables UseNumber, preserving int64
// precision that float64 round-tripping would lose).
func decodeValue(cell any) (table.Value, error) {
	switch c := cell.(type) {
	case nil:
		return table.NullValue(), nil
	case bool:
		return table.BoolValue(c), nil
	case string:
		return table.StringValue(c), nil
	case json.Number:
		// Int64 parses only an optionally signed digit string, so a number
		// with a fraction or an exponent goes straight to Float64 instead of
		// paying for a failed integer parse first.
		if !strings.ContainsAny(c.String(), ".eE") {
			if i, err := c.Int64(); err == nil {
				return table.IntValue(i), nil
			}
		}
		f, err := c.Float64()
		if err != nil {
			return table.Value{}, fmt.Errorf("unrepresentable number %q", c.String())
		}
		return table.FloatValue(f), nil
	case float64: // defensive: decoders without UseNumber
		if c == float64(int64(c)) {
			return table.IntValue(int64(c)), nil
		}
		return table.FloatValue(c), nil
	default:
		return table.Value{}, fmt.Errorf("unsupported cell type %T (want null, bool, number or string)", cell)
	}
}
