package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analyze"
	"repro/internal/experiments"
	"repro/internal/integrate"
	"repro/internal/schemamatch"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/table"
)

// Latency classes. Each request kind belongs to one; the end-to-end
// latency metrics are reported per class.
const (
	classDiscover  = "discover"
	classPipeline  = "pipeline"
	classIntegrate = "integrate"
	classAnalyze   = "analyze"
	// classAll pools every request of the workload.
	classAll = "all"
)

// kindSpec is one request kind of a workload's traffic mix.
type kindSpec struct {
	name  string
	class string
	path  string
	share float64
}

// body is one generated request body. Bodies with id >= 0 have a
// deterministic answer: every response to the same body must be
// byte-identical, and equal to the in-process reference.
type body struct {
	kind int
	id   int
	data []byte
	// src is the lake table the body was derived from, keyed into the
	// generator's ground truth; foreign marks a row sample with unseen
	// values (the query is not a lake table).
	src     string
	foreign bool
	// frags is the fragment set behind fragment-integration and resolve
	// bodies, for the FD/ER quality floors.
	frags *synth.FragmentSet
}

// inputs is everything one run sends: the lake as CSV files and the
// request pools per kind. The same seed yields byte-identical inputs;
// digest covers all of them.
type inputs struct {
	workload string
	seed     int64
	lakeDir  string
	truth    synth.GroundTruth
	families [][]*table.Table // family partitions, as loaded
	kinds    []kindSpec
	pools    [][]*body
	bodies   []*body
	digest   string
}

func (in *inputs) add(kind int, b *body) {
	b.kind = kind
	b.id = len(in.bodies)
	in.bodies = append(in.bodies, b)
	in.pools[kind] = append(in.pools[kind], b)
}

// Lake shapes. search uses the X3 join-search lake
// (experiments.JoinSearchLake: 40 families x (6 partitions + 2 joinable
// companions) + 40 noise tables = 360 tables of 120 rows).
func pipelineLakeOptions(seed int64) synth.LakeOptions {
	return synth.LakeOptions{Seed: seed, Families: 10, TablesPerFamily: 6, RowsPerTable: 40, JoinablePerFamily: 2, NoiseTables: 10}
}

func clusterLakeOptions(seed int64) synth.LakeOptions {
	return synth.LakeOptions{Seed: seed, Families: 20, TablesPerFamily: 6, RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 20}
}

const (
	discoverK     = 10
	pipelineK     = 3
	fragEntities  = 100
	erEntities    = 40
	unseenShare   = 0.3
	queriesPerMix = 96
)

var (
	allFour   = []string{"santos-union", "lsh-join", "josie-join", "syntactic-union"}
	withJosie = []string{"santos-union", "lsh-join", "josie-join"}
)

// generate builds a workload's inputs under dir from seed.
func generate(workload string, seed int64, dir string) (*inputs, error) {
	var sl *synth.Lake
	switch workload {
	case wSearch:
		sl = experiments.JoinSearchLake(seed)
	case wPipeline:
		sl = synth.GenerateLake(pipelineLakeOptions(seed))
	case wCluster:
		sl = synth.GenerateLake(clusterLakeOptions(seed))
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	in := &inputs{workload: workload, seed: seed, lakeDir: filepath.Join(dir, "lake"), truth: sl.Truth}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	for _, t := range sl.Tables {
		if err := t.WriteCSVFile(filepath.Join(in.lakeDir, t.Name+".csv")); err != nil {
			return nil, err
		}
	}
	// Bodies are built from the tables as the server will load them, so a
	// lake-table query carries exactly the cells the lake holds.
	loaded, err := table.LoadDir(in.lakeDir)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*table.Table, len(loaded))
	var families [][]*table.Table
	for _, t := range loaded {
		byName[t.Name] = t
		if f := sl.Truth.FamilyOf[t.Name]; f >= 0 {
			for len(families) <= f {
				families = append(families, nil)
			}
			families[f] = append(families[f], t)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in.families = families
	g := &gen{in: in, rng: rng, byName: byName}
	switch workload {
	case wSearch:
		// Half the queries are lake tables, half foreign. All-four-method
		// queries (the slowest, holding p90) are all foreign, so p90 falls
		// inside one kind; p50 falls 25 points inside the lake-table kind.
		in.kinds = []kindSpec{
			{"discover-lake", classDiscover, "/v1/discover", 0.5},
			{"discover-foreign", classDiscover, "/v1/discover", 0.25},
			{"discover-all", classDiscover, "/v1/discover", 0.25},
		}
		in.pools = make([][]*body, len(in.kinds))
		for i := 0; i < queriesPerMix; i++ {
			switch {
			case i%4 == 3:
				in.add(2, g.discoverBody(i, true, allFour, discoverK))
			case i%2 == 0:
				in.add(0, g.discoverBody(i, false, nil, discoverK))
			default:
				in.add(1, g.discoverBody(i, true, nil, discoverK))
			}
		}
	case wCluster:
		in.kinds = []kindSpec{
			{"discover", classDiscover, "/v1/discover", 0.7},
			{"integrate-names", classIntegrate, "/v1/integrate", 0.3},
		}
		in.pools = make([][]*body, len(in.kinds))
		// Foreign queries only: a lake-table query has twice the rows, and
		// the fan-out sends the query to every shard once per method, so a
		// mix would split the class in two and put p50 on the seam.
		for i := 0; i < queriesPerMix; i++ {
			in.add(0, g.discoverBody(i, true, withJosie, discoverK))
		}
		for i := 0; i < queriesPerMix/2; i++ {
			in.add(1, g.familyIntegrateBody())
		}
	case wPipeline:
		in.kinds = []kindSpec{
			{"pipeline", classPipeline, "/v1/pipeline", 0.4},
			{"integrate-fragments", classIntegrate, "/v1/integrate", 0.21},
			{"integrate-names", classIntegrate, "/v1/integrate", 0.09},
			{"resolve", classAnalyze, "/v1/resolve", 0.21},
			{"correlate", classAnalyze, "/v1/correlate", 0.09},
		}
		in.pools = make([][]*body, len(in.kinds))
		// The pipeline class's p90 is set by its costliest bodies; a large
		// pool keeps that tail alike from seed to seed.
		for i := 0; i < 4*queriesPerMix; i++ {
			in.add(0, g.pipelineBody(i))
		}
		for i := 0; i < 16; i++ {
			fs := synth.Fragments(synth.FragmentOptions{Seed: seed*1000 + int64(i) + 1, Entities: fragEntities})
			in.add(1, g.fragmentIntegrateBody(fs))
			b, err := g.resolveBody(synth.Fragments(synth.FragmentOptions{Seed: seed*1000 + int64(i) + 501, Entities: erEntities}))
			if err != nil {
				return nil, err
			}
			in.add(3, b)
		}
		for i := 0; i < 16; i++ {
			in.add(2, g.familyIntegrateBody())
			b, err := g.correlateBody()
			if err != nil {
				return nil, err
			}
			in.add(4, b)
		}
	}
	in.digest = g.digest()
	return in, nil
}

type gen struct {
	in     *inputs
	rng    *rand.Rand
	byName map[string]*table.Table
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated values are always representable
	}
	return b
}

// sourceTable picks a family table (partition) as a query source.
func (g *gen) sourceTable() *table.Table {
	fam := g.in.families[g.rng.Intn(len(g.in.families))]
	return fam[g.rng.Intn(len(fam))]
}

// foreignQuery samples half of src's rows and replaces a share of its key
// cells with values no lake table holds.
func (g *gen) foreignQuery(src *table.Table, keyCol int, name string) *table.Table {
	q := table.New(name, src.Columns...)
	rows := g.rng.Perm(src.NumRows())[:src.NumRows()/2]
	sort.Ints(rows)
	for _, r := range rows {
		row := append([]table.Value(nil), src.Rows[r]...)
		if g.rng.Float64() < unseenShare {
			row[keyCol] = table.StringValue(fmt.Sprintf("Unseen Place %d-%d", g.rng.Intn(1<<20), r))
		}
		q.Rows = append(q.Rows, row)
	}
	return q
}

func (g *gen) discoverBody(i int, foreign bool, methods []string, k int) *body {
	src := g.sourceTable()
	keyCol := g.in.truth.KeyColumn[src.Name]
	q := src
	if foreign {
		q = g.foreignQuery(src, keyCol, fmt.Sprintf("query%d", i))
	}
	return &body{src: src.Name, foreign: foreign, data: mustJSON(serve.DiscoverRequest{
		Query: serve.EncodeTable(q), QueryColumn: keyCol, Methods: methods, K: k,
	})}
}

func (g *gen) pipelineBody(i int) *body {
	src := g.sourceTable()
	keyCol := g.in.truth.KeyColumn[src.Name]
	q := g.foreignQuery(src, keyCol, fmt.Sprintf("query%d", i))
	return &body{src: src.Name, foreign: true, data: mustJSON(serve.PipelineRequest{
		Query: serve.EncodeTable(q), QueryColumn: keyCol, K: pipelineK, WithProvenance: true,
	})}
}

// familyIntegrateBody names three partitions of one family plus one of its
// joinable companions.
func (g *gen) familyIntegrateBody() *body {
	f := g.rng.Intn(len(g.in.families))
	fam := g.in.families[f]
	var parts, joins []string
	for _, t := range fam {
		if g.in.truth.FamilyOf[t.Name] == f {
			parts = append(parts, t.Name)
		}
	}
	for _, n := range g.in.truth.JoinableWith[fam[0].Name] {
		joins = append(joins, n)
	}
	g.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	names := append(parts[:3:3], joins[g.rng.Intn(len(joins))])
	return &body{src: fam[0].Name, data: mustJSON(serve.IntegrateRequest{Names: names})}
}

func (g *gen) fragmentIntegrateBody(fs *synth.FragmentSet) *body {
	tables := make([]serve.TableJSON, len(fs.Tables))
	for i, t := range fs.Tables {
		tables[i] = serve.EncodeTable(t)
	}
	return &body{frags: fs, data: mustJSON(serve.IntegrateRequest{Tables: tables})}
}

// integrated runs the default FD operator over tables in-process; analyze
// bodies carry its output, as a client would after an integrate call.
func integrated(tables []*table.Table) (*table.Table, error) {
	out, _, err := integrate.Apply(context.Background(), integrate.ALITEFD{}, tables, schemamatch.Holistic{}, nil, false)
	return out, err
}

func (g *gen) resolveBody(fs *synth.FragmentSet) (*body, error) {
	t, err := integrated(fs.Tables)
	if err != nil {
		return nil, err
	}
	return &body{frags: fs, data: mustJSON(serve.ResolveRequest{Table: serve.EncodeTable(t)})}, nil
}

// correlateBody integrates a family's partitions and correlates its first
// two numeric columns.
func (g *gen) correlateBody() (*body, error) {
	fam := g.in.families[g.rng.Intn(len(g.in.families))]
	var parts []*table.Table
	for _, t := range fam {
		if g.in.truth.FamilyOf[t.Name] >= 0 && len(parts) < 3 {
			parts = append(parts, t)
		}
	}
	t, err := integrated(parts)
	if err != nil {
		return nil, err
	}
	var numeric []string
	for c := 0; c < t.NumCols() && len(numeric) < 2; c++ {
		n := 0
		for _, row := range t.Rows {
			if _, ok := analyze.Coerce(row[c]); ok {
				n++
			}
		}
		if n*2 > t.NumRows() {
			numeric = append(numeric, t.Columns[c])
		}
	}
	if len(numeric) < 2 {
		return nil, fmt.Errorf("generator: integrated family table %q has %d numeric columns, want 2", t.Name, len(numeric))
	}
	return &body{src: fam[0].Name, data: mustJSON(serve.CorrelateRequest{Table: serve.EncodeTable(t), ColA: numeric[0], ColB: numeric[1]})}, nil
}

func (g *gen) digest() string {
	h := sha256.New()
	names := make([]string, 0, len(g.byName))
	for n := range g.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(g.in.lakeDir, n+".csv"))
		if err != nil {
			panic(err) // written above in this run
		}
		h.Write(raw)
	}
	for _, b := range g.in.bodies {
		h.Write(b.data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mutation is one lake write of the stream the traced run replays.
type mutation struct {
	add   bool
	names []string
	data  []byte
}

// mutationSource generates a lake write stream in order: adds of 1-3
// fresh-named copies of family partitions, and removes of the oldest tables
// added earlier, keeping between 3 and 9 extra tables live so the lake size
// stays steady. The stream depends only on the seed.
type mutationSource struct {
	rng      *rand.Rand
	families [][]*table.Table
	live     []string
	seq      int
}

func newMutationSource(seed int64, families [][]*table.Table) *mutationSource {
	return &mutationSource{rng: rand.New(rand.NewSource(seed ^ 0x3a7e)), families: families}
}

func (s *mutationSource) next() mutation {
	seq := s.seq
	s.seq++
	if len(s.live) < 3 || (len(s.live) < 9 && s.rng.Intn(2) == 0) {
		n := 1 + s.rng.Intn(3)
		req := serve.LakeAddRequest{}
		var names []string
		for j := 0; j < n; j++ {
			f := s.rng.Intn(len(s.families))
			src := s.families[f][s.rng.Intn(len(s.families[f]))]
			t := src.Clone()
			t.Name = fmt.Sprintf("write%d_%d_family%d", seq, j, f)
			names = append(names, t.Name)
			req.Tables = append(req.Tables, serve.EncodeTable(t))
		}
		s.live = append(s.live, names...)
		return mutation{add: true, names: names, data: mustJSON(req)}
	}
	n := 1 + s.rng.Intn(3)
	if n > len(s.live) {
		n = len(s.live)
	}
	names := append([]string(nil), s.live[:n]...)
	s.live = s.live[n:]
	return mutation{names: names, data: mustJSON(serve.LakeRemoveRequest{Names: names})}
}
