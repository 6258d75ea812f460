package kb_test

// synthesize_crosscheck_test pins the inverted-index column clustering of
// kb.Synthesize to the all-pairs string clustering it replaced, kept below
// as referenceSynthesize: on the paper tables, the benchmark lake shapes,
// hundreds of seeded hostile lakes and a fuzz corpus, both must produce a
// byte-identical Dump.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/synth"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// referenceSynthesize is the all-pairs implementation: every pair of
// clustered columns is compared by tokenize.Jaccard over fresh string sets.
func referenceSynthesize(tables []*table.Table, opts kb.SynthesizeOptions) *kb.KB {
	if opts.MinJaccard <= 0 {
		opts.MinJaccard = 0.3
	}
	if opts.MaxPairsPerTable <= 0 {
		opts.MaxPairsPerTable = 2000
	}
	type colRef struct {
		tableIdx int
		col      int
		values   []string
	}
	var cols []colRef
	for ti, t := range tables {
		for c := 0; c < t.NumCols(); c++ {
			if !kb.MostlyTextual(t, c) {
				continue
			}
			vals := tokenize.ValueSet(t.DistinctStrings(c))
			if len(vals) == 0 {
				continue
			}
			cols = append(cols, colRef{tableIdx: ti, col: c, values: vals})
		}
	}
	parent := make([]int, len(cols))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			if tokenize.Jaccard(cols[i].values, cols[j].values) >= opts.MinJaccard {
				union(i, j)
			}
		}
	}
	clusterName := make(map[int]string)
	for i := range cols {
		r := find(i)
		key := fmt.Sprintf("%s.%d", tables[cols[i].tableIdx].Name, cols[i].col)
		if cur, ok := clusterName[r]; !ok || key < cur {
			clusterName[r] = key
		}
	}
	k := kb.New()
	colType := make(map[[2]int]string)
	for i, cr := range cols {
		tn := "syn:" + clusterName[find(i)]
		k.AddType(tn, "")
		colType[[2]int{cr.tableIdx, cr.col}] = tn
		for _, v := range cr.values {
			k.AddEntity(v, tn)
		}
	}
	for ti, t := range tables {
		var clustered []int
		for c := 0; c < t.NumCols(); c++ {
			if _, ok := colType[[2]int{ti, c}]; ok {
				clustered = append(clustered, c)
			}
		}
		for ai := 0; ai < len(clustered); ai++ {
			for bi := ai + 1; bi < len(clustered); bi++ {
				a, b := clustered[ai], clustered[bi]
				label := "syn:" + colType[[2]int{ti, a}] + "->" + colType[[2]int{ti, b}]
				added := 0
				for _, row := range t.Rows {
					if added >= opts.MaxPairsPerTable {
						break
					}
					va, vb := row[a], row[b]
					if va.IsNull() || vb.IsNull() {
						continue
					}
					k.AddRelation(va.String(), label, vb.String())
					added++
				}
			}
		}
	}
	return k
}

// checkSynthesize fails t unless Synthesize and the reference dump the same
// KB, and returns that dump.
func checkSynthesize(t testing.TB, name string, tables []*table.Table, opts kb.SynthesizeOptions) kb.Dump {
	t.Helper()
	got := kb.Synthesize(tables, opts).Dump()
	want := referenceSynthesize(tables, opts).Dump()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (opts %+v): Synthesize dump differs from the all-pairs reference\n got types %v\nwant types %v",
			name, opts, got.Types, want.Types)
	}
	return got
}

// clusteredColumns counts the columns Synthesize clusters: one type each
// unless some merge.
func clusteredColumns(tables []*table.Table) int {
	n := 0
	for _, tb := range tables {
		for c := 0; c < tb.NumCols(); c++ {
			if kb.MostlyTextual(tb, c) && len(tokenize.ValueSet(tb.DistinctStrings(c))) > 0 {
				n++
			}
		}
	}
	return n
}

func TestSynthesizeMatchesReferencePaperData(t *testing.T) {
	sets := map[string][]*table.Table{
		"T1-T6":   {paperdata.T1(), paperdata.T2(), paperdata.T3(), paperdata.T4(), paperdata.T5(), paperdata.T6()},
		"covid":   append([]*table.Table{paperdata.T1()}, paperdata.CovidLake()...),
		"vaccine": paperdata.VaccineSet(),
	}
	for name, tables := range sets {
		for _, mj := range []float64{0, 1e-9, 0.3, 0.5, 1.0} {
			checkSynthesize(t, name, tables, kb.SynthesizeOptions{MinJaccard: mj})
		}
	}
}

// The lake shapes the benchmark synthesizes over: the X3 join-search lake
// and the 90- and 180-table synthetic lakes.
func TestSynthesizeMatchesReferenceLakes(t *testing.T) {
	lakes := map[string]*synth.Lake{
		"JoinSearchLake(17)": experiments.JoinSearchLake(17),
		"90-table": synth.GenerateLake(synth.LakeOptions{Seed: 1, Families: 10, TablesPerFamily: 6,
			RowsPerTable: 40, JoinablePerFamily: 2, NoiseTables: 10}),
		"180-table": synth.GenerateLake(synth.LakeOptions{Seed: 1, Families: 20, TablesPerFamily: 6,
			RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 20}),
	}
	for name, l := range lakes {
		d := checkSynthesize(t, name, l.Tables, kb.SynthesizeOptions{})
		if cols := clusteredColumns(l.Tables); len(d.Types) < 2 || len(d.Types) >= cols {
			t.Errorf("%s: %d synthesized types over %d text columns; the lake should merge some columns and not others",
				name, len(d.Types), cols)
		}
	}
}

// hostileCells are cell values chosen to stress the clustering: strings
// that collide after tokenize.Normalize, strings that normalize to empty,
// numbers (which count against MostlyTextual and render as strings), and
// nulls.
var hostileCells = []table.Value{
	table.StringValue("Alice"), table.StringValue(" alice"), table.StringValue("ALICE!"),
	table.StringValue("bob"), table.StringValue("Bob "), table.StringValue("carol"),
	table.StringValue("dave"), table.StringValue("erin"), table.StringValue("frank"),
	table.StringValue("x-ray"), table.StringValue("x ray"), table.StringValue("7"),
	table.StringValue("--"), table.StringValue(""), table.StringValue("!!!"),
	table.IntValue(7), table.IntValue(42), table.FloatValue(2.5),
	table.NullValue(), table.ProducedNull(),
}

// randomLake builds a small lake over a narrow vocabulary so columns
// overlap often, with all-null, normalize-to-empty and half-numeric
// columns mixed in.
func randomLake(rng *rand.Rand) []*table.Table {
	vocab := 2 + rng.Intn(11) // strings in play, from the first 12 cells
	nt := 1 + rng.Intn(7)
	tables := make([]*table.Table, nt)
	for ti := range tables {
		nc := 1 + rng.Intn(4)
		cols := make([]string, nc)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		// Names whose order differs from table order (t10 < t2).
		t := table.New(fmt.Sprintf("t%d", rng.Intn(20)*5+ti), cols...)
		nr := rng.Intn(9)
		kinds := make([]int, nc)
		for c := range kinds {
			kinds[c] = rng.Intn(6)
		}
		for r := 0; r < nr; r++ {
			row := make([]table.Value, nc)
			for c := range row {
				switch kinds[c] {
				case 0: // all null
					row[c] = hostileCells[18+rng.Intn(2)]
				case 1: // normalizes to empty
					row[c] = hostileCells[12+rng.Intn(3)]
				case 2: // exactly half numeric: MostlyTextual's boundary
					if r%2 == 0 {
						row[c] = hostileCells[rng.Intn(vocab)]
					} else {
						row[c] = hostileCells[15+rng.Intn(3)]
					}
				default: // anything
					if rng.Intn(4) == 0 {
						row[c] = hostileCells[rng.Intn(len(hostileCells))]
					} else {
						row[c] = hostileCells[rng.Intn(vocab)]
					}
				}
			}
			t.MustAddRow(row...)
		}
		tables[ti] = t
	}
	return tables
}

func TestSynthesizeMatchesReferenceRandomLakes(t *testing.T) {
	thresholds := []float64{1e-9, 0.3, 0.5, 1.0}
	caps := []int{0, 1, 2, 3}
	merged := 0 // lakes where some synthesized type spans two columns
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables := randomLake(rng)
		opts := kb.SynthesizeOptions{MinJaccard: thresholds[seed%4], MaxPairsPerTable: caps[(seed/4)%4]}
		d := checkSynthesize(t, fmt.Sprintf("seed %d", seed), tables, opts)
		if len(d.Types) < clusteredColumns(tables) {
			merged++
		}
	}
	if merged < 50 {
		t.Errorf("only %d of 240 random lakes merged any columns; the corpus no longer exercises clustering", merged)
	}
}

// strTable builds a one-column table of string cells.
func strTable(name string, vals ...string) *table.Table {
	t := table.New(name, "v")
	for _, v := range vals {
		t.MustAddRow(table.StringValue(v))
	}
	return t
}

func TestSynthesizeMatchesReferenceEdgeCases(t *testing.T) {
	// Transitive chain: a~b and b~c clear 0.3 but a~c does not; one type,
	// named after the smallest key ("a.0"), though "a" is the last table.
	chain := []*table.Table{
		strTable("c", "5", "6", "7", "8"),
		strTable("b", "3", "4", "5", "6"),
		strTable("a", "1", "2", "3", "4"),
	}
	d := checkSynthesize(t, "chain", chain, kb.SynthesizeOptions{})
	if len(d.Types) != 1 || d.Types[0].Type != "syn:a.0" {
		t.Errorf("chain: types %v, want one type syn:a.0", d.Types)
	}

	// Exactly at the threshold: |x|=6, |y|=7, |x∩y|=3, Jaccard 3/10 = 0.3.
	at := []*table.Table{
		strTable("x", "s1", "s2", "s3", "x1", "x2", "x3"),
		strTable("y", "s1", "s2", "s3", "y1", "y2", "y3", "y4"),
	}
	d = checkSynthesize(t, "at-threshold", at, kb.SynthesizeOptions{MinJaccard: 0.3})
	if len(d.Types) != 1 {
		t.Errorf("at-threshold: 3/10 >= 0.3 must merge, got types %v", d.Types)
	}
	d = checkSynthesize(t, "above-threshold", at, kb.SynthesizeOptions{MinJaccard: 0.31})
	if len(d.Types) != 2 {
		t.Errorf("above-threshold: 3/10 < 0.31 must not merge, got types %v", d.Types)
	}

	// Values that collide only after normalization overlap fully.
	collide := []*table.Table{
		strTable("p", "Alice", "BOB", "x-ray"),
		strTable("q", " alice", "bob!", "X Ray"),
	}
	d = checkSynthesize(t, "normalize", collide, kb.SynthesizeOptions{MinJaccard: 1.0})
	if len(d.Types) != 1 {
		t.Errorf("normalize: identical normalized sets must merge at 1.0, got types %v", d.Types)
	}

	// Disjoint columns never merge, even at the smallest threshold.
	disjoint := []*table.Table{strTable("m", "one", "two"), strTable("n", "three", "four")}
	d = checkSynthesize(t, "disjoint", disjoint, kb.SynthesizeOptions{MinJaccard: 1e-9})
	if len(d.Types) != 2 {
		t.Errorf("disjoint: got types %v, want two", d.Types)
	}

	// Relationship caps on a two-column table.
	wide := table.New("w", "k", "v")
	for i := 0; i < 6; i++ {
		wide.MustAddRow(table.StringValue(fmt.Sprintf("k%d", i)), table.StringValue(fmt.Sprintf("v%d", i%3)))
	}
	for _, cp := range []int{1, 2, 5, 100} {
		checkSynthesize(t, fmt.Sprintf("cap %d", cp), []*table.Table{wide, chain[0]}, kb.SynthesizeOptions{MaxPairsPerTable: cp})
	}
}

// fuzzLake decodes bytes into at most four small tables of hostile cells,
// plus synthesis options.
func fuzzLake(data []byte) ([]*table.Table, kb.SynthesizeOptions) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	thresholds := []float64{1e-9, 0.3, 0.5, 1.0}
	opts := kb.SynthesizeOptions{MinJaccard: thresholds[next()%4], MaxPairsPerTable: next() % 4}
	nt := 1 + next()%4
	tables := make([]*table.Table, nt)
	for ti := range tables {
		nc := 1 + next()%3
		cols := make([]string, nc)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		t := table.New(fmt.Sprintf("t%d", next()%8*4+ti), cols...)
		nr := next() % 7
		for r := 0; r < nr; r++ {
			row := make([]table.Value, nc)
			for c := range row {
				row[c] = hostileCells[next()%len(hostileCells)]
			}
			t.MustAddRow(row...)
		}
		tables[ti] = t
	}
	return tables, opts
}

func FuzzSynthesizeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 1, 0, 4, 0, 3, 5, 1, 1, 2, 6, 0, 1, 5, 2, 3})
	f.Add([]byte{0, 2, 2, 2, 1, 6, 0, 1, 3, 4, 15, 16, 2, 3, 6, 1, 0, 12, 13, 18, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		tables, opts := fuzzLake(data)
		checkSynthesize(t, "fuzz", tables, opts)
	})
}

// BenchmarkSynthesizeReference compares Synthesize against the all-pairs
// reference on the 360-table X3 lake.
func BenchmarkSynthesizeReference(b *testing.B) {
	tables := experiments.JoinSearchLake(17).Tables
	b.Run("inverted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kb.Synthesize(tables, kb.SynthesizeOptions{})
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceSynthesize(tables, kb.SynthesizeOptions{})
		}
	})
}
