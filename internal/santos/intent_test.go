package santos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

// intentCorpus is one lake of the cross-check suites with its KB and the
// tables annotated as queries (the lake's own tables and foreign ones).
type intentCorpus struct {
	name    string
	know    *kb.KB
	lake    []*table.Table
	queries []*table.Table
}

// intentCorpora rebuilds the cross-check suites' lakes: the demo lake,
// the mixed-kind lakes and the synthesized-KB entity lakes.
func intentCorpora() []intentCorpus {
	demo := append(paperdata.CovidLake(), paperdata.T3())
	out := []intentCorpus{{name: "demo", know: kb.Demo(), lake: demo, queries: append(demo, paperdata.T1())}}
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		cities := []string{"Berlin", "berlin", "Boston", "Tokyo", "Lyon", "Madrid", "Atlantis"}
		countries := []string{"Germany", "USA", "U.S.A.", "United States", "Japan", "France", "Spain"}
		mixed := []table.Value{
			table.IntValue(12), table.StringValue("12"), table.FloatValue(3.5),
			table.BoolValue(true), table.NullValue(), table.ProducedNull(),
		}
		mk := func(name string, rows int) *table.Table {
			tb := table.New(name, "city", "country", "noise")
			for r := 0; r < rows; r++ {
				city := table.Value(table.StringValue(cities[rng.Intn(len(cities))]))
				country := table.Value(table.StringValue(countries[rng.Intn(len(countries))]))
				if rng.Intn(4) == 0 {
					city = mixed[rng.Intn(len(mixed))]
				}
				if rng.Intn(4) == 0 {
					country = mixed[rng.Intn(len(mixed))]
				}
				tb.MustAddRow(city, country, mixed[rng.Intn(len(mixed))])
			}
			return tb
		}
		var lake []*table.Table
		for i := 0; i < 5+rng.Intn(5); i++ {
			lake = append(lake, mk(fmt.Sprintf("m%02d", i), 6+rng.Intn(10)))
		}
		out = append(out, intentCorpus{name: fmt.Sprintf("mixed-%d", seed), know: kb.Demo(), lake: lake, queries: append(lake, mk("query", 8))})
	}
	for _, seed := range []int64{5, 6, 7} {
		rng := rand.New(rand.NewSource(seed))
		people := make([]string, 20)
		for i := range people {
			people[i] = fmt.Sprintf("person%02d", i)
		}
		teams := []string{"red", "blue", "green", "gold"}
		cities := []string{"berlin", "boston", "tokyo", "lyon", "oslo"}
		mk := func(name string, rows int) *table.Table {
			tb := table.New(name, "who", "team", "city")
			for r := 0; r < rows; r++ {
				tb.MustAddRow(
					table.StringValue(people[rng.Intn(len(people))]),
					table.StringValue(teams[rng.Intn(len(teams))]),
					table.StringValue(cities[rng.Intn(len(cities))]),
				)
			}
			return tb
		}
		var lake []*table.Table
		for i := 0; i < 6+rng.Intn(6); i++ {
			lake = append(lake, mk(fmt.Sprintf("t%02d", i), 4+rng.Intn(10)))
		}
		know := kb.Synthesize(lake, kb.SynthesizeOptions{})
		out = append(out, intentCorpus{name: fmt.Sprintf("synth-%d", seed), know: know, lake: lake, queries: append(lake, mk("query", 6))})
	}
	return out
}

// TestAnnotateIntentMatchesFull: annotating a query for one intent column
// gives that column exactly the semantics the full annotation gives it —
// annotation, type and every edge — and no other column.
func TestAnnotateIntentMatchesFull(t *testing.T) {
	checked := 0
	for _, c := range intentCorpora() {
		ix := Build(c.lake, c.know)
		s := ix.scratch.Get().(*kb.Scratch)
		for _, q := range c.queries {
			full := annotate(q, ix.ann.QueryScope(), s)
			for col := 0; col < q.NumCols(); col++ {
				var want []columnSemantics
				for _, cs := range full.cols {
					if cs.col == col {
						want = append(want, cs)
					}
				}
				got := annotateFor(q, ix.ann.QueryScope(), s, col)
				if got.t != q || !reflect.DeepEqual(got.cols, want) {
					t.Fatalf("%s %s col %d: intent annotation %+v, full annotation gives %+v", c.name, q.Name, col, got.cols, want)
				}
				if len(want) > 0 && len(want[0].edges) > 0 {
					checked++
				}
			}
		}
		ix.scratch.Put(s)
	}
	if checked == 0 {
		t.Fatal("no intent column with edges: the corpora no longer exercise relationships")
	}
}
