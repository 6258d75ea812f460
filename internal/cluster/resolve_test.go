// resolve_test covers the coordinator's table fetch (POST /v1/lake/tables)
// end to end: what a shard's unrepresentable cell does to a discover, how
// each class of bad body surfaces in ResolveTables and Tables, and the
// Remove rollback that re-adds fetched tables.
package cluster_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

// TestClusterDiscoverNonFiniteCellFails: a lake table holding +Inf (CSV
// "Inf" parses to a Float) is answered in process, but its shard cannot
// put it on the wire, so a coordinator discover whose top-k includes it
// fails with the shard's 500 instead of dropping the table.
func TestClusterDiscoverNonFiniteCellFails(t *testing.T) {
	pool := diffPool(61, 10)
	inf := table.New("cinf", pool[0].Columns...)
	for _, row := range pool[0].Rows {
		inf.Rows = append(inf.Rows, slices.Clone(row))
	}
	last := len(inf.Columns) - 1
	inf.Rows[0][last] = table.Parse("Inf")
	if v := inf.Rows[0][last]; v.Kind() != table.Float {
		t.Fatalf("Inf parsed as %v, want a float", v.Kind())
	}
	tables := append(pool, inf)
	q := pool[1]
	reg := discovery.NewRegistry()
	ctx := context.Background()

	l, err := lake.New(tables, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	_, set, _, err := discovery.Discover(ctx, reg, l, q, 0, 0, difftest.DiffMethods)
	if err != nil {
		t.Fatalf("in-process discover: %v", err)
	}
	if !slices.ContainsFunc(set, func(t *table.Table) bool { return t.Name == "cinf" }) {
		t.Fatal("the +Inf table is not in the in-process integration set; the test no longer reaches the resolve")
	}

	tc := startCluster(t, tables, 3)
	_, _, serrs, err := discovery.Discover(ctx, reg, tc.coord, q, 0, 0, difftest.DiffMethods)
	var se *cluster.ShardError
	if err == nil || !errors.As(err, &se) || se.Status != http.StatusInternalServerError ||
		!strings.Contains(err.Error(), "unsupported value: +Inf") {
		t.Fatalf("coordinator discover: err %v, shard errors %v; want the shard's 500 for +Inf", err, serrs)
	}
	if errors.Is(err, discovery.ErrShardUnavailable) {
		t.Error("a shard that cannot encode a table is not an unavailable shard")
	}
}

// tablesBodyShard serves every /v1/lake/tables request of one shard with a
// fixed body and passes the rest through.
func tablesBodyShard(shard int, body string) func(int, http.Handler) http.Handler {
	return func(s int, h http.Handler) http.Handler {
		if s != shard {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/lake/tables" {
				h.ServeHTTP(w, r)
				return
			}
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, body)
		})
	}
}

// TestClusterTablesBodyErrors: a body that is not valid JSON (or not the
// response's shape) is a transport-class *ShardError with status 0, which
// partial reads tolerate; a well-formed body holding a table DecodeTable
// rejects fails ResolveTables by name and is skipped alone by Tables.
func TestClusterTablesBodyErrors(t *testing.T) {
	pool := diffPool(62, 9)
	name := nameForShard("bad", 1, 3)
	for _, body := range []string{`{"tables":[{"name":"x",`, `{"tables":5}`, `["tables"]`, ``} {
		tc := startClusterWith(t, pool, 3, tablesBodyShard(1, body))
		_, err := tc.coord.ResolveTables(context.Background(), []string{name})
		var se *cluster.ShardError
		if !errors.As(err, &se) || se.Status != 0 || se.Shard != 1 || !errors.Is(err, discovery.ErrShardUnavailable) {
			t.Errorf("body %q: err %v, want a status-0 shard 1 error matching ErrShardUnavailable", body, err)
		}
	}

	body := `{"tables":[{"name":"` + name + `","columns":["a"],"rows":[[1]]},{"name":"ragged","columns":["a"],"rows":[[1,2]]}]}`
	tc := startClusterWith(t, pool, 3, tablesBodyShard(1, body))
	_, err := tc.coord.ResolveTables(context.Background(), []string{name})
	if err == nil || !strings.Contains(err.Error(), `cluster: shard 1: malformed table "ragged"`) {
		t.Errorf("ResolveTables: err %v, want the malformed table named", err)
	}
	var got []string
	for _, tb := range tc.coord.Tables() {
		got = append(got, tb.Name)
	}
	if !slices.Contains(got, name) || slices.Contains(got, "ragged") {
		t.Errorf("Tables() = %v: want %q kept and the malformed table skipped", got, name)
	}
}

// TestClusterRemoveRollbackRestoresTables: when one shard refuses its part
// of a Remove, the tables another shard already dropped are re-added from
// the validation fetch, cell for cell.
func TestClusterRemoveRollbackRestoresTables(t *testing.T) {
	pool := diffPool(63, 12)
	var keep, refuse *table.Table
	for _, tb := range pool {
		switch lake.ShardIndex(tb.Name, 3) {
		case 0:
			keep = tb
		case 1:
			refuse = tb
		}
	}
	tc := startClusterWith(t, pool, 3, func(s int, h http.Handler) http.Handler {
		if s != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/lake/remove" {
				http.Error(w, `{"error":"refused","status":400}`, http.StatusBadRequest)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	if err := tc.coord.Remove(keep.Name, refuse.Name); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("Remove: err %v, want shard 1's refusal", err)
	}
	for _, want := range []*table.Table{keep, refuse} {
		got, ok := tc.coord.Get(want.Name)
		if !ok {
			t.Fatalf("%s is gone after the rolled-back Remove", want.Name)
		}
		if !slices.Equal(got.Columns, want.Columns) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: shape %v x %d, want %v x %d", want.Name, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
		}
		for r := range want.Rows {
			for c, v := range want.Rows[r] {
				if g := got.Rows[r][c]; g.Kind() != v.Kind() || !g.Equal(v) {
					t.Fatalf("%s row %d col %d: %v (%v), want %v (%v)", want.Name, r, c, g, g.Kind(), v, v.Kind())
				}
			}
		}
	}
}
