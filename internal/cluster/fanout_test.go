// fanout_test pins what one coordinator query costs on the wire and how it
// degrades: one discover call per shard carrying every method, no epoch
// sampling, at most one table batch per shard, a single attempt when a
// shard is down, and an explicit partial (never a silent stub) when a
// shard dies between discover and resolve. It also covers integrate by
// names, which fetches through the same per-shard batches.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/serve"
	"repro/internal/table"
)

// shardCalls counts the requests each shard server receives, by path.
type shardCalls struct {
	mu sync.Mutex
	n  []map[string]int
}

func newShardCalls(n int) *shardCalls {
	sc := &shardCalls{n: make([]map[string]int, n)}
	sc.reset()
	return sc
}

func (sc *shardCalls) wrap(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc.mu.Lock()
		sc.n[shard][r.URL.Path]++
		sc.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (sc *shardCalls) reset() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i := range sc.n {
		sc.n[i] = make(map[string]int)
	}
}

// get returns shard's count for path; shard -1 sums every shard.
func (sc *shardCalls) get(shard int, path string) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if shard >= 0 {
		return sc.n[shard][path]
	}
	total := 0
	for _, m := range sc.n {
		total += m[path]
	}
	return total
}

// logicalCalls is the coordinator's own count of shard calls, per shard.
func logicalCalls(c *cluster.Coordinator) []uint64 {
	sm := c.ShardMetrics()
	out := make([]uint64, len(sm))
	for i, m := range sm {
		out[i] = m.Calls
	}
	return out
}

func sumSince(now, before []uint64) uint64 {
	var n uint64
	for i := range now {
		n += now[i] - before[i]
	}
	return n
}

// TestClusterDiscoverOneCallPerShard: a four-method discover over three
// shards is three discover calls, no epoch calls, and at most one table
// batch per shard.
func TestClusterDiscoverOneCallPerShard(t *testing.T) {
	pool := diffPool(23, 9)
	const n = 3
	calls := newShardCalls(n)
	tc := startClusterWith(t, pool, n, calls.wrap)
	calls.reset()
	before := logicalCalls(tc.coord)

	reg := discovery.NewRegistry()
	_, _, serrs, err := discovery.Discover(context.Background(), reg, tc.coord, pool[0], 0, 5, difftest.DiffMethods)
	if err != nil || len(serrs) > 0 {
		t.Fatalf("Discover: err=%v shardErrs=%v", err, serrs)
	}
	for s := 0; s < n; s++ {
		if got := calls.get(s, "/v1/discover"); got != 1 {
			t.Errorf("shard %d got %d discover calls, want 1", s, got)
		}
	}
	if got := calls.get(-1, "/v1/lake/epoch"); got != 0 {
		t.Errorf("%d epoch calls, want 0", got)
	}
	tables := calls.get(-1, "/v1/lake/tables")
	if tables > n {
		t.Errorf("%d table batches, want at most %d", tables, n)
	}
	if got, want := sumSince(logicalCalls(tc.coord), before), uint64(n+tables); got != want {
		t.Errorf("ShardMetrics counted %d calls, want %d (%d discover + %d table batches)", got, want, n, tables)
	}
}

// TestClusterDegradedReadOneAttempt: with one shard down, a read makes one
// attempt — no torn-read retry — and carries the partial marker.
func TestClusterDegradedReadOneAttempt(t *testing.T) {
	pool := diffPool(31, 9)
	const n, down = 3, 2
	calls := newShardCalls(n)
	tc := startClusterWith(t, pool, n, calls.wrap)
	tc.shards[down].Close()
	reg := discovery.NewRegistry()
	for read := 0; read < 2; read++ {
		calls.reset()
		before := logicalCalls(tc.coord)
		_, _, serrs, err := discovery.Discover(context.Background(), reg, tc.coord, pool[0], 0, 5, difftest.DiffMethods)
		if err != nil {
			t.Fatalf("read %d: %v", read, err)
		}
		if len(serrs) != 1 || serrs[0].Shard != down || !errors.Is(serrs[0], discovery.ErrShardUnavailable) {
			t.Fatalf("read %d: shard errors %v, want one unavailable error for shard %d", read, serrs, down)
		}
		for s := 0; s < n; s++ {
			if s != down && calls.get(s, "/v1/discover") != 1 {
				t.Fatalf("read %d: live shard %d got %d discover calls, want 1", read, s, calls.get(s, "/v1/discover"))
			}
		}
		if got := logicalCalls(tc.coord)[down] - before[down]; got != 1 {
			t.Fatalf("read %d: down shard took %d logical calls, want 1", read, got)
		}
	}
}

// TestClusterShardDiesBeforeResolve: a shard that answers discover and is
// gone by the table resolve makes the read partial. Its tables leave the
// rankings, which then equal a catalog without that shard's tables, and
// nothing is left as a column-less stub. Strict RunAll fails instead.
func TestClusterShardDiesBeforeResolve(t *testing.T) {
	pool := diffPool(47, 12)
	const n = 3
	// A renamed copy of a victim-shard table: discoverers skip the query's
	// own name, and the copy's twin tops the victim shard's rankings.
	victim := lake.ShardIndex(pool[0].Name, n)
	query := pool[0].Clone()
	query.Name = "query"
	// state: 0 healthy, 1 dies after its next discover answer, 2 dead
	// (every connection is dropped unanswered).
	var state atomic.Int32
	wrap := func(shard int, h http.Handler) http.Handler {
		if shard != victim {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if state.Load() == 2 {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			h.ServeHTTP(w, r)
			if r.URL.Path == "/v1/discover" {
				state.CompareAndSwap(1, 2)
			}
		})
	}
	tc := startClusterWith(t, pool, n, wrap)
	var live []*table.Table
	for _, tbl := range pool {
		if lake.ShardIndex(tbl.Name, n) != victim {
			live = append(live, tbl)
		}
	}
	mirror, err := lake.NewSharded(live, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	reg := discovery.NewRegistry()
	const k = 3

	state.Store(1)
	per, set, serrs, err := discovery.Discover(context.Background(), reg, tc.coord, query, 0, k, difftest.DiffMethods)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if state.Load() != 2 {
		t.Fatal("the victim shard never answered a discover call")
	}
	if len(serrs) != 1 || serrs[0].Shard != victim || !errors.Is(serrs[0], discovery.ErrShardUnavailable) {
		t.Fatalf("shard errors %v, want one unavailable error for shard %d", serrs, victim)
	}
	want, _, _, err := discovery.Discover(context.Background(), reg, mirror, query, 0, k, difftest.DiffMethods)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range difftest.DiffMethods {
		if got, exp := rankingSig(per[m]), rankingSig(want[m]); got != exp {
			t.Errorf("%s: partial ranking %s, want the live shards' ranking %s", m, got, exp)
		}
		for _, r := range per[m] {
			if r.Table.NumCols() == 0 {
				t.Errorf("%s: %q left as a column-less stub", m, r.Table.Name)
			}
		}
	}
	for _, tbl := range set[1:] {
		if lake.ShardIndex(tbl.Name, n) == victim {
			t.Errorf("integration set holds %q from the dead shard", tbl.Name)
		}
	}

	state.Store(1)
	ds, err := reg.Resolve(difftest.DiffMethods)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := discovery.RunAll(context.Background(), tc.coord, query, 0, k, ds); !errors.Is(err, discovery.ErrShardUnavailable) {
		t.Fatalf("strict RunAll with a shard dead before resolve: err = %v, want ErrShardUnavailable", err)
	}
}

func rankingSig(rs []discovery.Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s|%016x|%d;", r.Table.Name, math.Float64bits(r.Score), r.Column)
	}
	return s
}

// TestClusterIntegrateByNames: integrate by names through a coordinator
// answers like an in-process catalog, in request order; an absent name is
// 400, and a name whose shard is down is 503, not "no table".
func TestClusterIntegrateByNames(t *testing.T) {
	pool := diffPool(53, 9)
	const n = 3
	tc := startCluster(t, pool, n)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(serve.New(core.FromCatalog(tc.coord), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer front.Close()
	twin := httptest.NewServer(serve.New(core.FromCatalog(mirror), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer twin.Close()
	integrate := func(base string, names ...string) (int, string) {
		t.Helper()
		body, _ := json.Marshal(serve.IntegrateRequest{Names: names})
		resp, err := http.Post(base+"/v1/integrate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	names := []string{pool[4].Name, pool[0].Name, pool[7].Name}
	code, got := integrate(front.URL, names...)
	if code != http.StatusOK {
		t.Fatalf("integrate by names: %d %s", code, got)
	}
	if _, want := integrate(twin.URL, names...); got != want {
		t.Fatalf("coordinator integrate diverged from in-process catalog\n got: %s\nwant: %s", got, want)
	}
	if code, body := integrate(front.URL, pool[0].Name, "no-such-table"); code != http.StatusBadRequest {
		t.Fatalf("absent name: %d %s, want 400", code, body)
	}

	down := lake.ShardIndex(pool[0].Name, n)
	tc.shards[down].Close()
	if code, body := integrate(front.URL, names...); code != http.StatusServiceUnavailable {
		t.Fatalf("name on a down shard: %d %s, want 503", code, body)
	}
}
