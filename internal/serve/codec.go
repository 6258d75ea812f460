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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

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
		if v, ok := numberValue(c.String()); ok {
			return v, nil
		}
		return table.Value{}, fmt.Errorf("unrepresentable number %q", c.String())
	case float64: // defensive: decoders without UseNumber
		if c == float64(int64(c)) {
			return table.IntValue(int64(c)), nil
		}
		return table.FloatValue(c), nil
	default:
		return table.Value{}, unsupportedCell(cell)
	}
}

// numberValue is the wire's number rule, shared by every decode path: a
// JSON number literal is an Int when strconv parses it as an int64, else a
// Float; ok is false when it is neither (a literal beyond float64 range).
func numberValue(lit string) (v table.Value, ok bool) {
	// ParseInt accepts only an optionally signed digit string, so a literal
	// with a fraction or an exponent goes straight to ParseFloat instead of
	// paying for a failed integer parse first.
	if !hasFractionOrExponent(lit) {
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return table.IntValue(i), true
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return table.Value{}, false
	}
	return table.FloatValue(f), true
}

func hasFractionOrExponent(lit string) bool {
	for i := 0; i < len(lit); i++ {
		if c := lit[i]; c == '.' || c == 'e' || c == 'E' {
			return true
		}
	}
	return false
}

func unsupportedCell(cell any) error {
	return fmt.Errorf("unsupported cell type %T (want null, bool, number or string)", cell)
}

// The POST /v1/lake/tables response body moves between bytes and tables
// without encoding/json: a cluster coordinator fetches every resolved
// integration set through it, and boxing each cell into an interface on
// the shard and a json.Number on the coordinator dominated that call's
// cost. Its wire form is
//
//	{"tables":[{"name":N,"columns":[C,...],"rows":[[cell,...],...]},...],"missing":[N,...]}
//
// byte for byte what json.Encoder (SetEscapeHTML(false)) writes for the
// same tables as TableJSON values, trailing newline included: "columns" is
// null for a table with nil Columns and "missing" is omitted when empty.
// The reader accepts exactly the bodies json.Decoder (UseNumber) followed
// by TableJSON.DecodeTable accepts, and yields the same tables.

// lakeTablesBody is a /v1/lake/tables response: the found tables in
// request order and the names the lake does not hold.
type lakeTablesBody struct {
	tables  []*table.Table
	missing []string
}

// appendJSON appends the body's wire form to dst. A NaN or ±Inf cell has
// no JSON form; the error is the one encoding/json reports for it.
func (b lakeTablesBody) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"tables":[`...)
	for i, t := range b.tables {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendString(dst, t.Name)
		dst = append(dst, `,"columns":`...)
		dst = appendStrings(dst, t.Columns)
		dst = append(dst, `,"rows":[`...)
		for ri, row := range t.Rows {
			if ri > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for ci, v := range row {
				if ci > 0 {
					dst = append(dst, ',')
				}
				var err error
				if dst, err = appendValue(dst, v); err != nil {
					return dst, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, "]}"...)
	}
	dst = append(dst, ']')
	if len(b.missing) > 0 {
		dst = append(dst, `,"missing":`...)
		dst = appendStrings(dst, b.missing)
	}
	return append(dst, "}\n"...), nil
}

// appendValue appends one cell as encodeValue's JSON value.
func appendValue(dst []byte, v table.Value) ([]byte, error) {
	switch v.Kind() {
	case table.String:
		return appendString(dst, v.Str()), nil
	case table.Int:
		return strconv.AppendInt(dst, v.IntVal(), 10), nil
	case table.Float:
		return appendFloat(dst, v.FloatVal())
	case table.Bool:
		return strconv.AppendBool(dst, v.BoolVal()), nil
	default: // both null kinds
		return append(dst, "null"...), nil
	}
}

// appendFloat writes f as encoding/json does: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendStrings writes a string list, null for a nil one.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendString writes s as a JSON string the way encoding/json does
// without HTML escaping: '"' and '\\' backslash-escaped, control bytes as
// \b \f \n \r \t or \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// LakeTables is a parsed /v1/lake/tables response.
type LakeTables struct {
	// Tables holds one entry per element of "tables", in body order.
	Tables []LakeTable
	// Missing lists the names the shard does not hold.
	Missing []string
}

// LakeTable is one table of a parsed /v1/lake/tables response: the table,
// or the shape error TableJSON.DecodeTable reports for it (a ragged row,
// an object or array cell, a number beyond float64 range). Table is nil
// exactly when Err is set.
type LakeTable struct {
	Name  string
	Table *table.Table
	Err   error
}

// The codec's pools keep buffers up to these sizes (body bytes, and cells
// of one rows list): a full-catalog fetch may be far larger than the
// resolve traffic the pools serve.
const (
	maxPooledBody  = 1 << 20
	maxPooledCells = 1 << 16
)

// parsers holds bodyParsers between reads, so steady resolve traffic
// reuses their read buffer and cell scratch.
var parsers = sync.Pool{New: func() any { return new(bodyParser) }}

// ReadLakeTables reads a /v1/lake/tables response body and parses it
// straight into tables. It follows json.Decoder (UseNumber) decoding into
// the response's TableJSON form exactly: keys match case-insensitively
// (bytes.EqualFold), the last of duplicate keys wins, unknown keys are
// skipped, null leaves a string or object field as it was and empties a
// list, a list decoded again reuses the elements an earlier duplicate left
// behind, and anything after the first value is ignored. Malformed JSON, a
// value of the wrong type or nesting deeper than encoding/json's limit is
// an error; a table whose shape DecodeTable rejects gets its error in
// LakeTable.Err. Every string returned is a fresh copy: coordinator
// dictionaries intern cell values for the life of the process, and a
// string sharing the pooled read buffer would pin it and change with the
// next read.
func ReadLakeTables(r io.Reader) (LakeTables, error) {
	p := parsers.Get().(*bodyParser)
	defer func() {
		if p.buf.Cap() <= maxPooledBody && cap(p.cells) <= maxPooledCells {
			parsers.Put(p)
		}
	}()
	p.buf.Reset()
	if _, err := p.buf.ReadFrom(r); err != nil {
		return LakeTables{}, err
	}
	return p.parse(p.buf.Bytes())
}

// parse parses body b (see ReadLakeTables).
func (p *bodyParser) parse(b []byte) (LakeTables, error) {
	p.b, p.pos, p.depth = b, 0, 0
	defer func() { p.b = nil }()
	p.ws()
	if p.pos == len(p.b) {
		return LakeTables{}, p.fail("unexpected end of JSON input")
	}
	if p.b[p.pos] == 'n' {
		// A null body decodes to the zero response.
		return LakeTables{}, p.literal("null")
	}
	if p.b[p.pos] != '{' {
		return LakeTables{}, p.typeError("response")
	}
	var slots []wireTable // every "tables" element decoded since the last reset
	n := 0                // the current "tables" length
	var missing stringList
	err := p.object(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, keyTables):
			switch p.peek() {
			case 'n':
				slots, n = nil, 0
				return p.literal("null")
			case '[':
			default:
				return p.typeError("tables")
			}
			n = 0
			err := p.array(func() error {
				if n == len(slots) {
					slots = append(slots, wireTable{})
				}
				n++
				return p.table(&slots[n-1])
			})
			if n == 0 {
				slots = nil
			}
			return err
		case bytes.EqualFold(key, keyMissing):
			return p.strings(&missing, "missing")
		default:
			return p.skip()
		}
	})
	if err != nil {
		return LakeTables{}, err
	}
	out := LakeTables{Missing: missing.list()}
	if n > 0 {
		out.Tables = make([]LakeTable, n)
		for i := range out.Tables {
			out.Tables[i] = slots[i].decode()
		}
	}
	return out, nil
}

var (
	keyTables  = []byte("tables")
	keyMissing = []byte("missing")
	keyName    = []byte("name")
	keyColumns = []byte("columns")
	keyRows    = []byte("rows")
)

// maxDepth is encoding/json's nesting limit: a body nesting objects and
// arrays deeper than this is rejected.
const maxDepth = 10000

// wireTable is what json.Decoder holds for one "tables" element: the
// TableJSON fields, rows already converted to Values, and the first cell
// DecodeTable would reject.
type wireTable struct {
	name    string
	columns stringList
	rows    [][]table.Value
	bad     badCell
}

// badCell is the first cell of a rows list that is not null, bool, number
// or string (err == nil when there is none).
type badCell struct {
	row, col int
	err      error
}

// decode applies DecodeTable's shape check: rows in order, each first
// against the column count, then for a rejected cell.
func (w *wireTable) decode() LakeTable {
	cols := w.columns.list()
	for ri, row := range w.rows {
		if len(row) != len(cols) {
			return LakeTable{Name: w.name, Err: fmt.Errorf("table %q: row %d has %d cells, want %d", w.name, ri, len(row), len(cols))}
		}
		if w.bad.err != nil && w.bad.row == ri {
			return LakeTable{Name: w.name, Err: fmt.Errorf("table %q: row %d, column %d: %w", w.name, ri, w.bad.col, w.bad.err)}
		}
	}
	t := table.New(w.name, cols...)
	if len(w.rows) > 0 {
		t.Rows = w.rows
	}
	return LakeTable{Name: w.name, Table: t}
}

// stringList is a []string as json.Decoder fills one: decoding a list
// again overwrites the elements from the front, and a null element keeps
// whatever an earlier decode left at its position.
type stringList struct {
	back []string // every element decoded since the last reset
	n    int      // the current length
}

func (s *stringList) list() []string {
	if s.n == 0 {
		return nil
	}
	return s.back[:s.n]
}

// bodyParser walks a JSON body. Each method starts at the first byte of
// the value it reads (whitespace already skipped) and returns with pos
// just past it.
type bodyParser struct {
	buf   bytes.Buffer // the body as read
	b     []byte
	pos   int
	depth int
	esc   []byte        // unescaped text of the last escaped string
	cells []table.Value // the rows list being read, all cells in order
	lens  []int         // ... and each row's cell count
}

func (p *bodyParser) fail(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, p.pos)
}

func (p *bodyParser) typeError(field string) error {
	return fmt.Errorf("wrong JSON type for %s at offset %d", field, p.pos)
}

// peek returns the next byte, or 0 at the end of the input.
func (p *bodyParser) peek() byte {
	if p.pos < len(p.b) {
		return p.b[p.pos]
	}
	return 0
}

func (p *bodyParser) ws() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *bodyParser) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if p.pos == len(p.b) {
			return p.fail("unexpected end of JSON input")
		}
		if p.b[p.pos] != word[i] {
			return p.fail(fmt.Sprintf("invalid character %q in literal %s", p.b[p.pos], word))
		}
		p.pos++
	}
	return nil
}

// open consumes the bracket that starts an object or array.
func (p *bodyParser) open() error {
	if p.depth++; p.depth > maxDepth {
		return p.fail("exceeded max depth")
	}
	p.pos++
	p.ws()
	return nil
}

// object reads an object, calling member for each key with pos at the
// member's value; member must read that value.
func (p *bodyParser) object(member func(key []byte) error) error {
	if err := p.open(); err != nil {
		return err
	}
	if p.peek() == '}' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if p.peek() != '"' {
			return p.unexpected("looking for beginning of object key string")
		}
		raw, plain, err := p.str()
		if err != nil {
			return err
		}
		key := raw
		if !plain {
			key = p.unquote(raw)
		}
		p.ws()
		if p.peek() != ':' {
			return p.unexpected("after object key")
		}
		p.pos++
		p.ws()
		if err := member(key); err != nil {
			return err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.pos++
			p.ws()
		case '}':
			p.pos++
			p.depth--
			return nil
		default:
			return p.unexpected("after object key:value pair")
		}
	}
}

// array reads an array, calling elem with pos at each element; elem must
// read it.
func (p *bodyParser) array(elem func() error) error {
	if err := p.open(); err != nil {
		return err
	}
	if p.peek() == ']' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.pos++
			p.ws()
		case ']':
			p.pos++
			p.depth--
			return nil
		default:
			return p.unexpected("after array element")
		}
	}
}

func (p *bodyParser) unexpected(context string) error {
	if p.pos == len(p.b) {
		return p.fail("unexpected end of JSON input")
	}
	return p.fail(fmt.Sprintf("invalid character %q %s", p.b[p.pos], context))
}

// table decodes one "tables" element into w: an object sets the fields it
// names, null leaves w as it was.
func (p *bodyParser) table(w *wireTable) error {
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '{':
	default:
		return p.typeError("table")
	}
	return p.object(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, keyName):
			switch p.peek() {
			case 'n':
				return p.literal("null")
			case '"':
				raw, plain, err := p.str()
				w.name = p.text(raw, plain)
				return err
			default:
				return p.typeError("name")
			}
		case bytes.EqualFold(key, keyColumns):
			return p.strings(&w.columns, "columns")
		case bytes.EqualFold(key, keyRows):
			return p.rows(w)
		default:
			return p.skip()
		}
	})
}

// strings decodes a string list into s.
func (p *bodyParser) strings(s *stringList, field string) error {
	switch p.peek() {
	case 'n':
		*s = stringList{}
		return p.literal("null")
	case '[':
	default:
		return p.typeError(field)
	}
	s.n = 0
	err := p.array(func() error {
		if s.n == len(s.back) {
			s.back = append(s.back, "")
		}
		s.n++
		switch p.peek() {
		case 'n':
			return p.literal("null")
		case '"':
			raw, plain, err := p.str()
			s.back[s.n-1] = p.text(raw, plain)
			return err
		default:
			return p.typeError(field)
		}
	})
	if s.n == 0 {
		s.back = nil
	}
	return err
}

// rows decodes a rows list into w, replacing its rows whole: every cell
// decodes fresh, so nothing of an earlier duplicate survives. The cells
// of one list share one backing array, each row capped to its own cells.
func (p *bodyParser) rows(w *wireTable) error {
	switch p.peek() {
	case 'n':
		w.rows, w.bad = nil, badCell{}
		return p.literal("null")
	case '[':
	default:
		return p.typeError("rows")
	}
	cells, lens := p.cells[:0], p.lens[:0]
	var bad badCell
	err := p.array(func() error {
		switch p.peek() {
		case 'n': // a null row has no cells
			lens = append(lens, 0)
			return p.literal("null")
		case '[':
		default:
			return p.typeError("row")
		}
		start := len(cells)
		err := p.array(func() error {
			v, cellErr, err := p.cell()
			if cellErr != nil && bad.err == nil {
				bad = badCell{row: len(lens), col: len(cells) - start, err: cellErr}
			}
			cells = append(cells, v)
			return err
		})
		lens = append(lens, len(cells)-start)
		return err
	})
	if err == nil {
		arena := make([]table.Value, len(cells))
		copy(arena, cells)
		w.rows = make([][]table.Value, len(lens))
		off := 0
		for i, n := range lens {
			w.rows[i] = arena[off : off+n : off+n]
			off += n
		}
		w.bad = bad
	}
	clear(cells) // drop the scratch's string references
	p.cells, p.lens = cells[:0], lens[:0]
	return err
}

// cell decodes one row cell. A cell DecodeTable rejects (an object, an
// array or an out-of-range number) is still read; its error comes back as
// cellErr.
func (p *bodyParser) cell() (v table.Value, cellErr, err error) {
	switch c := p.peek(); {
	case c == '"':
		raw, plain, err := p.str()
		return table.StringValue(p.text(raw, plain)), nil, err
	case c == '-' || ('0' <= c && c <= '9'):
		lit, err := p.number()
		if err != nil {
			return v, nil, err
		}
		if v, ok := numberValue(string(lit)); ok {
			return v, nil, nil
		}
		return v, fmt.Errorf("unrepresentable number %q", lit), nil
	case c == 't':
		return table.BoolValue(true), nil, p.literal("true")
	case c == 'f':
		return table.BoolValue(false), nil, p.literal("false")
	case c == 'n':
		return table.NullValue(), nil, p.literal("null")
	case c == '{':
		return v, unsupportedCell(map[string]any(nil)), p.skip()
	case c == '[':
		return v, unsupportedCell([]any(nil)), p.skip()
	default:
		return v, nil, p.unexpected("looking for beginning of value")
	}
}

// skip reads and discards any JSON value.
func (p *bodyParser) skip() error {
	switch c := p.peek(); {
	case c == '{':
		return p.object(func([]byte) error { return p.skip() })
	case c == '[':
		return p.array(p.skip)
	case c == '"':
		_, _, err := p.str()
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := p.number()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	default:
		return p.unexpected("looking for beginning of value")
	}
}

// number reads a number literal of JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *bodyParser) number() ([]byte, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	switch c := p.peek(); {
	case c == '0':
		p.pos++
	case '1' <= c && c <= '9':
		p.digits()
	default:
		return nil, p.unexpected("in numeric literal")
	}
	if p.peek() == '.' {
		p.pos++
		if !isDigit(p.peek()) {
			return nil, p.unexpected("after decimal point in numeric literal")
		}
		p.digits()
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if !isDigit(p.peek()) {
			return nil, p.unexpected("in exponent of numeric literal")
		}
		p.digits()
	}
	return p.b[start:p.pos], nil
}

func (p *bodyParser) digits() {
	for p.pos < len(p.b) && isDigit(p.b[p.pos]) {
		p.pos++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str reads a string literal and returns its raw contents (between the
// quotes) in b. plain reports that they need no unquoting: no escapes and
// valid UTF-8. Control bytes and unknown escapes are errors, as in JSON.
func (p *bodyParser) str() (raw []byte, plain bool, err error) {
	p.pos++ // the opening quote
	start := p.pos
	plain = true
	for p.pos < len(p.b) {
		switch c := p.b[p.pos]; {
		case c == '"':
			p.pos++
			return p.b[start : p.pos-1], plain, nil
		case c == '\\':
			plain = false
			p.pos++
			switch p.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				p.pos++
				for i := 0; i < 4; i++ {
					if !isHex(p.peek()) {
						return nil, false, p.unexpected("in \\u hexadecimal character escape")
					}
					p.pos++
				}
			default:
				return nil, false, p.unexpected("in string escape code")
			}
		case c < ' ':
			return nil, false, p.fail(fmt.Sprintf("invalid character %q in string literal", c))
		case c < utf8.RuneSelf:
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.b[p.pos:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			p.pos += size
		}
	}
	return nil, false, p.fail("unexpected end of JSON input")
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// text returns a string's decoded contents as a fresh string.
func (p *bodyParser) text(raw []byte, plain bool) string {
	if plain {
		return string(raw)
	}
	return string(p.unquote(raw))
}

// unquote decodes a string's raw contents the way encoding/json does:
// escapes resolved, a UTF-16 surrogate pair joined, a lone surrogate and
// every invalid UTF-8 byte replaced by U+FFFD. raw has passed str, so its
// escapes are well formed. The result lives in p.esc until the next call.
func (p *bodyParser) unquote(raw []byte) []byte {
	out := p.esc[:0]
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(raw[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(raw[r+2:])); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	p.esc = out
	return out
}

// hex4 decodes the four hex digits at the front of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
