package discovery_test

// crosscheck_test pins SyntacticUnion, which scores Jaccard on JOSIE's
// integer postings, to the string-set scan it replaced, kept below as
// referenceSyntacticUnion: on the paper tables, the X3 join-search lake, a
// lake with live delta postings and tombstones, hostile foreign queries,
// the shards of a lake.Sharded and a fuzz corpus, both must rank the same
// tables with float64-bit-identical scores.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/experiments"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// referenceSyntacticUnion is the string implementation: every query column
// is compared with every lake column by Jaccard over freshly built string
// sets, and a table scores the mean of its per-column best matches.
func referenceSyntacticUnion(l *lake.Lake, q *table.Table, k int) []discovery.Result {
	qdoms := make([][]string, q.NumCols())
	for c := range qdoms {
		qdoms[c] = tokenize.ValueSet(q.DistinctStrings(c))
	}
	perTable := make(map[string][][]string)
	for _, d := range l.Domains() {
		perTable[d.Table] = append(perTable[d.Table], d.Values)
	}
	var out []discovery.Result
	for name, doms := range perTable {
		t, ok := l.Get(name)
		if !ok || name == q.Name {
			continue
		}
		total, counted := 0.0, 0
		for _, qd := range qdoms {
			if len(qd) == 0 {
				continue
			}
			counted++
			bestSim := 0.0
			for _, ld := range doms {
				if s := referenceJaccard(qd, ld); s > bestSim {
					bestSim = s
				}
			}
			total += bestSim
		}
		if counted == 0 || total == 0 {
			continue
		}
		out = append(out, discovery.Result{Table: t, Score: total / float64(counted), Method: "syntactic-union", Column: -1})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Table.Name < out[b].Table.Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// referenceJaccard is |a∩b|/|a∪b| over two string sets.
func referenceJaccard(a, b []string) float64 {
	as := make(map[string]bool, len(a))
	for _, x := range a {
		as[x] = true
	}
	inter := 0
	bs := make(map[string]bool, len(b))
	for _, x := range b {
		if !bs[x] {
			bs[x] = true
			if as[x] {
				inter++
			}
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// rankingSig renders a ranking with exact float64 score bits.
func rankingSig(rs []discovery.Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s|%016x|%s|%d;", r.Table.Name, math.Float64bits(r.Score), r.Method, r.Column)
	}
	return b.String()
}

// checkSyntactic fails t unless SyntacticUnion and the reference rank the
// same tables with bit-identical scores for q at several k, and returns
// the number of tables ranked at k=0.
func checkSyntactic(t testing.TB, name string, l *lake.Lake, q *table.Table) int {
	t.Helper()
	n := 0
	for _, k := range []int{0, 1, 3} {
		got, err := discovery.SyntacticUnion{}.Discover(context.Background(), l, q, 0, k)
		if err != nil {
			t.Fatalf("%s: query %q k=%d: %v", name, q.Name, k, err)
		}
		want := referenceSyntacticUnion(l, q, k)
		if g, w := rankingSig(got), rankingSig(want); g != w {
			t.Fatalf("%s: query %q k=%d: ranking differs from the string reference\n got: %s\nwant: %s", name, q.Name, k, g, w)
		}
		if k == 0 {
			n = len(got)
		}
	}
	return n
}

// hostileCells stress the tokenizer: Normalize collisions, values that
// normalize to empty, numbers and booleans that render like strings, and
// nulls of both kinds.
var hostileCells = []table.Value{
	table.StringValue("berlin"), table.StringValue("Berlin "), table.StringValue("BERLIN!"),
	table.StringValue("paris"), table.StringValue("new york"), table.StringValue("New-York"),
	table.StringValue("tokyo"), table.StringValue("germany"), table.StringValue("France"),
	table.StringValue("7"), table.IntValue(7), table.FloatValue(7), table.FloatValue(2.5),
	table.StringValue("true"), table.BoolValue(true),
	table.StringValue(""), table.StringValue("--"), table.StringValue("!!!"),
	table.NullValue(), table.ProducedNull(),
}

// foreignQuery builds a query table no lake holds: a column drawn from
// cities (some out of vocabulary), a hostile column, a numeric column and
// an all-null column, in a shuffled order so column 0 varies.
func foreignQuery(rng *rand.Rand, name string) *table.Table {
	cols := []func() table.Value{
		func() table.Value {
			if rng.Intn(3) == 0 {
				return table.StringValue(fmt.Sprintf("nowhere %d", rng.Intn(50)))
			}
			return table.StringValue(difftest.DiffCities[rng.Intn(len(difftest.DiffCities))])
		},
		func() table.Value { return hostileCells[rng.Intn(len(hostileCells))] },
		func() table.Value { return table.IntValue(int64(rng.Intn(1000))) },
		func() table.Value {
			if rng.Intn(2) == 0 {
				return table.NullValue()
			}
			return table.ProducedNull()
		},
	}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	ncols := 1 + rng.Intn(len(cols))
	headers := make([]string, ncols)
	for c := range headers {
		headers[c] = fmt.Sprintf("c%d", c)
	}
	q := table.New(name, headers...)
	for r := rng.Intn(9); r > 0; r-- {
		row := make([]table.Value, ncols)
		for c := range row {
			row[c] = cols[c]()
		}
		q.MustAddRow(row...)
	}
	return q
}

// hostileTable is a lake table mixing the differential vocabulary with
// hostile cells, so lake columns hold collisions, empties and numbers too.
func hostileTable(rng *rand.Rand, name string) *table.Table {
	if rng.Intn(2) == 0 {
		return difftest.DiffTable(rng, name)
	}
	t := table.New(name, "a", "b")
	for r := 2 + rng.Intn(8); r > 0; r-- {
		t.MustAddRow(hostileCells[rng.Intn(len(hostileCells))],
			table.StringValue(difftest.DiffCities[rng.Intn(len(difftest.DiffCities))]))
	}
	return t
}

func newLake(t testing.TB, tables []*table.Table) *lake.Lake {
	t.Helper()
	l, err := lake.New(tables, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSyntacticUnionMatchesReferencePaperData(t *testing.T) {
	lakes := map[string][]*table.Table{
		"covid":   paperdata.CovidLake(),
		"vaccine": paperdata.VaccineSet(),
		"T1-T6":   {paperdata.T1(), paperdata.T2(), paperdata.T3(), paperdata.T4(), paperdata.T5(), paperdata.T6()},
	}
	queries := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3(), paperdata.T4(), paperdata.T5(), paperdata.T6()}
	for name, tables := range lakes {
		l, err := lake.New(tables, lake.Options{Knowledge: kb.Demo()})
		if err != nil {
			t.Fatal(err)
		}
		ranked := 0
		// Foreign copies of the paper tables, then the lake's own tables
		// (which take the cached-domain path).
		for _, q := range append(append([]*table.Table(nil), queries...), l.Tables()...) {
			ranked += checkSyntactic(t, name, l, q)
		}
		if ranked == 0 {
			t.Errorf("%s: no query ranked any table; the cross-check compared nothing", name)
		}
	}
}

// The X3 join-search lake the search benchmark serves: lake-table queries
// (cached domains) and foreign variants of them with half the rows and
// some key cells replaced by values no lake table holds.
func TestSyntacticUnionMatchesReferenceJoinSearchLake(t *testing.T) {
	sl := experiments.JoinSearchLake(17)
	l := newLake(t, sl.Tables)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		src := sl.Tables[rng.Intn(len(sl.Tables))]
		if checkSyntactic(t, "X3", l, src) == 0 {
			t.Errorf("X3: lake table %q ranked nothing", src.Name)
		}
		foreign := table.New(src.Name+"_foreign", src.Columns...)
		for r, row := range src.Rows {
			if r%2 != 0 {
				continue
			}
			row = append([]table.Value(nil), row...)
			if rng.Intn(3) == 0 {
				row[0] = table.StringValue(fmt.Sprintf("unseen %d", rng.Intn(1000)))
			}
			foreign.MustAddRow(row...)
		}
		checkSyntactic(t, "X3 foreign", l, foreign)
	}
}

// A lake after Add/Remove churn answers from its JOSIE delta postings and
// tombstoned base postings: the churn stays well under JOSIE's automatic
// compaction threshold (256 postings), so both are live when the queries
// run. Compact then folds them, and the answers must still match.
func TestSyntacticUnionMatchesReferenceAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var base []*table.Table
	for i := 0; i < 12; i++ {
		base = append(base, hostileTable(rng, fmt.Sprintf("base%d", i)))
	}
	l := newLake(t, base)
	for i := 0; i < 4; i++ {
		if err := l.Add(hostileTable(rng, fmt.Sprintf("added%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Remove("base1", "base4", "added2", "base7"); err != nil {
		t.Fatal(err)
	}
	// A removed name re-added with new contents.
	if err := l.Add(hostileTable(rng, "base4")); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		for i := 0; i < 20; i++ {
			checkSyntactic(t, stage, l, foreignQuery(rng, fmt.Sprintf("q%d", i)))
		}
		for _, q := range l.Tables() {
			checkSyntactic(t, stage, l, q)
		}
	}
	check("churned")
	l.Compact()
	check("compacted")
}

// Foreign queries over a hostile lake: OOV tokens, null and empty columns,
// numeric columns and Normalize collisions on both sides.
func TestSyntacticUnionMatchesReferenceForeignQueries(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tables []*table.Table
		for i := 0; i < 4+rng.Intn(8); i++ {
			tables = append(tables, hostileTable(rng, fmt.Sprintf("t%d", i)))
		}
		l := newLake(t, tables)
		for i := 0; i < 10; i++ {
			checkSyntactic(t, fmt.Sprintf("seed %d", seed), l, foreignQuery(rng, fmt.Sprintf("q%d", i)))
		}
	}
	// Degenerate queries: every column null, empty after normalization, or
	// absent from the lake entirely.
	l := newLake(t, []*table.Table{difftest.DiffTable(rand.New(rand.NewSource(1)), "only")})
	empty := table.New("empty", "a", "b")
	nulls := table.New("nulls", "a")
	nulls.MustAddRow(table.NullValue())
	nulls.MustAddRow(table.ProducedNull())
	blank := table.New("blank", "a")
	blank.MustAddRow(table.StringValue("--"))
	blank.MustAddRow(table.StringValue(""))
	oov := table.New("oov", "a")
	oov.MustAddRow(table.StringValue("atlantis"))
	for _, q := range []*table.Table{empty, nulls, blank, oov} {
		if n := checkSyntactic(t, "degenerate", l, q); n != 0 {
			t.Errorf("query %q ranked %d tables, want none", q.Name, n)
		}
	}
}

// Each shard of a lake.Sharded answers from its own token dictionary and
// JOSIE index; every shard must match the reference over that shard, and
// the merged sharded ranking must match the reference over the unsharded
// lake.
func TestSyntacticUnionMatchesReferenceSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tables []*table.Table
	for i := 0; i < 24; i++ {
		tables = append(tables, hostileTable(rng, fmt.Sprintf("t%d", i)))
	}
	un := newLake(t, tables)
	sh, err := lake.NewSharded(tables, 3, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	queries := append([]*table.Table{tables[0], tables[9], tables[17]}, foreignQuery(rng, "f0"), foreignQuery(rng, "f1"), foreignQuery(rng, "f2"))
	for _, q := range queries {
		for s, shard := range sh.Shards() {
			checkSyntactic(t, fmt.Sprintf("shard %d", s), shard, q)
		}
		for _, k := range []int{0, 2} {
			out, err := discovery.RunAll(context.Background(), sh, q, 0, k, []discovery.Discoverer{discovery.SyntacticUnion{}})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rankingSig(out[0]), rankingSig(referenceSyntacticUnion(un, q, k)); g != w {
				t.Fatalf("sharded query %q k=%d: merged ranking differs from the unsharded reference\n got: %s\nwant: %s", q.Name, k, g, w)
			}
		}
	}
}

// FuzzSyntacticUnionMatchesReference builds a small churned lake from the
// seed and a query whose cells are the fuzzed string's '|'-separated
// fields, and requires the integer and string scans to agree.
func FuzzSyntacticUnionMatchesReference(f *testing.F) {
	f.Add(int64(1), "berlin|Berlin |paris|7|--|")
	f.Add(int64(2), "new york|New-York|atlantis|TRUE")
	f.Add(int64(3), "")
	f.Add(int64(4), "ÄÖ|äö|x y|x y|2.5|2.50")
	f.Fuzz(func(t *testing.T, seed int64, raw string) {
		rng := rand.New(rand.NewSource(seed))
		fields := strings.Split(raw, "|")
		var tables []*table.Table
		for i := 0; i < 3+rng.Intn(4); i++ {
			tb := hostileTable(rng, fmt.Sprintf("t%d", i))
			if rng.Intn(2) == 0 {
				// Some lake cells come from the fuzzed fields, so collisions
				// and exotic runes reach the lake side too.
				for r := range tb.Rows {
					tb.Rows[r][0] = table.StringValue(fields[rng.Intn(len(fields))])
				}
			}
			tables = append(tables, tb)
		}
		l := newLake(t, tables[:len(tables)-1])
		if err := l.Add(tables[len(tables)-1]); err != nil {
			t.Fatal(err)
		}
		if err := l.Remove(tables[rng.Intn(len(tables))].Name); err != nil {
			t.Fatal(err)
		}
		q := table.New("fuzzq", "a", "b")
		for i, s := range fields {
			q.MustAddRow(table.StringValue(s), hostileCells[(i+int(seed&0xff))%len(hostileCells)])
		}
		checkSyntactic(t, "fuzz", l, q)
	})
}
