package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/table"
)

// BenchmarkClusterDiscovery measures a full coordinator discovery fan-out —
// all diff methods scattered over three HTTP shard servers, merged, and the
// integration set's tables resolved — against in-process httptest shards.
// It is the cluster-mode counterpart of the in-process sharded discovery
// benchmarks: the delta between the two is the serialization + HTTP cost of
// the scatter-gather seam.
func BenchmarkClusterDiscovery(b *testing.B) {
	pool := diffPool(91, 12)
	tc := startCluster(b, pool, 3)
	reg := discovery.NewRegistry()
	query := difftest.DiffTable(rand.New(rand.NewSource(17)), "benchq")
	ctx := context.Background()

	// One warm-up fan-out so connection setup is off the clock.
	if _, _, serrs, err := discovery.Discover(ctx, reg, tc.coord, query, 0, 5, difftest.DiffMethods); err != nil || len(serrs) > 0 {
		b.Fatalf("warm-up fan-out failed: err=%v shardErrs=%v", err, serrs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perMethod, _, serrs, err := discovery.Discover(ctx, reg, tc.coord, query, 0, 5, difftest.DiffMethods)
		if err != nil {
			b.Fatal(err)
		}
		if len(serrs) > 0 {
			b.Fatalf("benchmark run went partial: %v", serrs)
		}
		if len(perMethod) != len(difftest.DiffMethods) {
			b.Fatalf("got %d method result sets, want %d", len(perMethod), len(difftest.DiffMethods))
		}
	}
}

// BenchmarkClusterResolve splits a coordinator discover over the served
// benchmark's cluster lake shape (180 tables of 120 rows on 3 shards, the
// demo KB merged with one synthesized over the lake, a 60-row foreign
// query, three methods, k=10) into its two shard hops: fanout is the
// discover call to every shard, resolve the table fetch for the merged
// integration set.
func BenchmarkClusterResolve(b *testing.B) {
	sl := synth.GenerateLake(synth.LakeOptions{Seed: 1, Families: 20, TablesPerFamily: 6, RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 20})
	know := kb.Demo().Merge(kb.Synthesize(sl.Tables, kb.SynthesizeOptions{}))
	const shards, k = 3, 10
	addrs := make([]string, shards)
	for i := range addrs {
		var mine []*table.Table
		for _, t := range sl.Tables {
			if lake.ShardIndex(t.Name, shards) == i {
				mine = append(mine, t)
			}
		}
		l, err := lake.New(mine, lake.Options{Knowledge: know})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(serve.New(core.FromLake(l), serve.Config{Timeout: 10 * time.Second}).Handler())
		b.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: know, CallTimeout: 10 * time.Second, ProbeTimeout: 2 * time.Second})
	if err != nil {
		b.Fatal(err)
	}

	// The foreign query: half of a family table's rows, 30% of their key
	// cells replaced by values no lake table holds.
	rng := rand.New(rand.NewSource(1))
	var src *table.Table
	for _, t := range sl.Tables {
		if _, ok := sl.Truth.FamilyOf[t.Name]; ok {
			src = t
			break
		}
	}
	keyCol := sl.Truth.KeyColumn[src.Name]
	q := table.New("query", src.Columns...)
	for _, r := range rng.Perm(src.NumRows())[:src.NumRows()/2] {
		row := append([]table.Value(nil), src.Rows[r]...)
		if rng.Float64() < 0.3 {
			row[keyCol] = table.StringValue(fmt.Sprintf("Unseen Place %d", r))
		}
		q.Rows = append(q.Rows, row)
	}
	ds, err := discovery.NewRegistry().Resolve([]string{"santos-union", "lsh-join", "josie-join"})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	per, err := discovery.RunAll(ctx, coord, q, keyCol, k, ds)
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	for _, t := range discovery.IntegrationSet(q, per...)[1:] {
		names = append(names, t.Name)
	}
	b.Logf("%d tables to resolve", len(names))

	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			errs := make([]error, shards)
			par.For(shards, func(s int) {
				_, errs[s] = coord.RunShard(ctx, s, ds, q, keyCol, k)
			})
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := coord.ResolveTables(ctx, names)
			if err != nil || len(got) != len(names) {
				b.Fatalf("resolved %d of %d tables: %v", len(got), len(names), err)
			}
		}
	})
}
