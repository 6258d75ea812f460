// Package cluster is DIALITE's shard-per-process deployment: a
// coordinator-side lake.Catalog / discovery target whose shards are remote
// `dialite serve` processes instead of in-process *lake.Lakes. PR 9's
// in-process lake.Sharded established everything the transport change
// needs — name-hash routing recomputable from names alone (lake.ShardIndex),
// self-contained shard lakes, and a deterministic (score desc, name asc)
// rank merge consuming only (table, score, column) tuples — so the
// coordinator is deliberately thin: it speaks serve's own JSON API to each
// shard, one discover call per shard per query, and reuses discovery's
// merge and torn-read machinery unchanged.
//
// Equivalence: coordinator discovery answers are float64-bit-exact against
// an in-process lake.Sharded over the same tables — JSON encodes float64
// shortest-round-trip and both sides decode with full precision — pinned
// by the multi-process differential harness.
//
// Degradation: reads tolerate down shards, returning partial results with
// an explicit marker plus per-shard error detail (discovery.RunAllPartial);
// mutations touching a down shard refuse fast with 503 before anything is
// applied anywhere. See SHARDING.md's "Cluster mode" section for the
// failure-semantics contract.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/discovery"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/table"
)

// Config configures a Coordinator.
type Config struct {
	// Addrs are the shard base URLs in shard order: the table placement
	// rule is lake.ShardIndex(name, len(Addrs)), so the order and count
	// must match how the shard stores were populated (the manifest pins
	// the count; see Manifest).
	Addrs []string
	// Knowledge is the coordinator-side knowledge base for the cross-shard
	// stages (integration matching, entity resolution); nil means none.
	// Shard processes hold their own copies for SANTOS annotation.
	Knowledge *kb.KB
	// Engine is the sketch engine the shards run. Empty probes the
	// reachable shards at construction and adopts their (unanimous)
	// engine; the serve CLI passes the manifest's pinned engine instead.
	Engine sketch.Engine
	// CallTimeout caps each shard call that carries no tighter request
	// deadline of its own. 0 means 15s.
	CallTimeout time.Duration
	// ProbeTimeout caps the cheap sampling calls (health, sizes,
	// mutation pre-probes). 0 means 2s.
	ProbeTimeout time.Duration
	// Retries bounds per-call retry attempts for idempotent reads against
	// a transiently failing shard. 0 means 2; negative disables.
	Retries int
	// RetryBackoff is the base backoff between retry attempts (linear:
	// attempt n waits n*RetryBackoff). 0 means 50ms.
	RetryBackoff time.Duration
	// Client overrides the HTTP client; nil builds a pooled transport
	// shared by every shard (connection reuse across the fan-out).
	Client *http.Client
}

// Coordinator implements lake.Catalog and discovery's remote target over a
// set of shard processes. It holds no table data: reads scatter to the
// shards and gather deterministically, mutations route by lake.ShardIndex,
// and the composite-level state (value dictionary, KB annotator) lives
// coordinator-side exactly as lake.Sharded keeps it composite-side.
type Coordinator struct {
	cfg    Config
	shards []*shardClient
	// epoch is the coordinator-local seqlock counter over routed
	// mutations; Epochs reports it.
	epoch     atomic.Uint64
	knowledge *kb.KB
	annotator *kb.Annotator
	dict      *table.Dict
	engine    sketch.Engine
}

var (
	_ lake.Catalog               = (*Coordinator)(nil)
	_ discovery.Remote           = (*Coordinator)(nil)
	_ serve.ShardHealthReporter  = (*Coordinator)(nil)
	_ serve.ShardMetricsReporter = (*Coordinator)(nil)
	_ serve.NameLister           = (*Coordinator)(nil)
	_ serve.TableResolver        = (*Coordinator)(nil)
)

// New builds a coordinator over the configured shard addresses. Shards may
// be down at construction: the coordinator starts degraded rather than
// failing, except when no engine was configured and no shard is reachable
// to probe one from — then there is nothing to validate mutations or
// health against and construction fails.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 15 * time.Second
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c := &Coordinator{cfg: cfg, knowledge: cfg.Knowledge, dict: table.NewDict()}
	if c.knowledge == nil {
		c.knowledge = kb.New()
	}
	c.annotator = kb.NewAnnotator(c.knowledge.Compiled(), c.dict)
	var err error
	if c.shards, err = newShardClients(cfg.Addrs, hc, cfg.CallTimeout, cfg.Retries, cfg.RetryBackoff); err != nil {
		return nil, err
	}
	c.engine = cfg.Engine
	if err := c.resolveEngine(); err != nil {
		return nil, err
	}
	return c, nil
}

// resolveEngine validates or probes the shard sketch engine. With a
// configured engine (manifest-pinned), reachable shards merely cross-check
// it; without one, the reachable shards must agree and at least one must
// answer.
func (c *Coordinator) resolveEngine() error {
	if c.engine != "" && !sketch.Known(c.engine) {
		return fmt.Errorf("cluster: unknown sketch engine %q", c.engine)
	}
	type probe struct {
		engine string
		err    error
	}
	probes := make([]probe, len(c.shards))
	par.For(len(c.shards), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		h, err := c.shards[i].health(ctx)
		probes[i] = probe{engine: h.SketchEngine, err: err}
	})
	for i, p := range probes {
		if p.err != nil || p.engine == "" {
			continue // down or warming; the manifest or another shard decides
		}
		switch {
		case c.engine == "":
			c.engine = sketch.Engine(p.engine)
		case string(c.engine) != p.engine:
			return fmt.Errorf("cluster: shard %d (%s) runs sketch engine %q, want %q — shard stores disagree with the manifest", i, c.shards[i].addr, p.engine, c.engine)
		}
	}
	if c.engine == "" {
		return fmt.Errorf("cluster: no sketch engine configured and no shard reachable to probe one from")
	}
	return nil
}

// NumShards reports the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// ShardFor reports which shard the named table routes to — the same
// unkeyed FNV-1a rule every deployment shape uses.
func (c *Coordinator) ShardFor(name string) int { return lake.ShardIndex(name, len(c.shards)) }

// Epochs samples the cluster's mutation-epoch vector: the coordinator's
// local counter alone, which every routed mutation ticks. Reads never ask
// the shards for theirs. A tear inside one shard is already retried by
// that shard's own RunAll, and a tear across shards needs a mutation
// routed through this coordinator — mutations must never reach a shard
// directly (SHARDING.md).
func (c *Coordinator) Epochs() []uint64 { return []uint64{c.epoch.Load()} }

func (c *Coordinator) beginMutation() { c.epoch.Add(1) }
func (c *Coordinator) endMutation()   { c.epoch.Add(1) }

// callCtx is the context for catalog methods that have none of their own
// (lake.Catalog predates the transport): the per-call timeout is the only
// deadline.
func (c *Coordinator) callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.cfg.CallTimeout)
}

// Get fetches a table from the shard its name routes to. Any failure —
// including the shard being down — reports the table as absent; callers
// needing the distinction use ResolveTables, as the serving layer does.
func (c *Coordinator) Get(name string) (*table.Table, bool) {
	ctx, cancel := c.callCtx()
	defer cancel()
	m, err := c.ResolveTables(ctx, []string{name})
	t := m[name]
	return t, err == nil && t != nil
}

// TableNames enumerates the catalog's table names: shard 0..N-1, each in
// its shard-local catalog order. Cluster mode cannot reproduce global
// insertion order — it is not persisted anywhere a restarted coordinator
// could recover it from — and SHARDING.md documents the divergence.
func (c *Coordinator) TableNames(ctx context.Context) ([]string, error) {
	infos := make([]serve.LakeResponse, len(c.shards))
	errs := make([]error, len(c.shards))
	par.For(len(c.shards), func(i int) {
		infos[i], errs[i] = c.shards[i].lakeInfo(ctx)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var names []string
	for _, info := range infos {
		names = append(names, info.Tables...)
	}
	return names, nil
}

// Tables materializes every table in the catalog — the full-catalog fetch
// integration falls back on. Down shards' tables are skipped (the method
// has no error channel; serving paths that must distinguish use
// TableNames + Get). Order matches TableNames.
func (c *Coordinator) Tables() []*table.Table {
	ctx, cancel := c.callCtx()
	defer cancel()
	per := make([][]*table.Table, len(c.shards))
	par.For(len(c.shards), func(i int) {
		info, err := c.shards[i].lakeInfo(ctx)
		if err != nil || len(info.Tables) == 0 {
			return
		}
		resp, err := c.shards[i].getTables(ctx, info.Tables)
		if err != nil {
			return
		}
		out := make([]*table.Table, 0, len(resp.Tables))
		for _, lt := range resp.Tables {
			if lt.Err == nil {
				out = append(out, lt.Table)
			}
		}
		per[i] = out
	})
	var all []*table.Table
	for _, ts := range per {
		all = append(all, ts...)
	}
	return all
}

// Size sums the reachable shards' table counts (down shards contribute
// zero; /healthz carries the per-shard detail).
func (c *Coordinator) Size() int {
	per := make([]int, len(c.shards))
	par.For(len(c.shards), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		if ep, err := c.shards[i].epochs(ctx); err == nil {
			per[i] = ep.Size
		}
	})
	n := 0
	for _, v := range per {
		n += v
	}
	return n
}

// probeInvolved refuses a mutation fast when any shard it must touch is
// unreachable: nothing has been applied anywhere yet, so the refusal is
// clean — no partial batch, no rollback. The returned error is a
// *ShardError carrying 503.
func (c *Coordinator) probeInvolved(involved []int) error {
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		_, errs[j] = c.shards[involved[j]].epochs(ctx)
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: mutation refused, shard unreachable: %w", err)
		}
	}
	return nil
}

// Add routes the batch by table name and applies each shard's sub-batch
// concurrently, after validating the whole batch coordinator-side (the
// same atomic-validation contract lake.Sharded keeps) and probing every
// involved shard. Cross-shard atomicity is compensated, not transactional:
// if any shard rejects its sub-batch (e.g. a duplicate name), sub-batches
// already applied elsewhere are rolled back with best-effort removes, and
// the first shard's error (in shard order) is returned.
func (c *Coordinator) Add(tables ...*table.Table) error {
	if len(tables) == 0 {
		return nil
	}
	batch := make(map[string]bool, len(tables))
	perShard := make([][]serve.TableJSON, len(c.shards))
	perShardNames := make([][]string, len(c.shards))
	for _, t := range tables {
		if t == nil {
			return fmt.Errorf("lake: add: nil table")
		}
		if t.Name == "" {
			return fmt.Errorf("lake: add: table with empty name")
		}
		if batch[t.Name] {
			return fmt.Errorf("lake: add: duplicate table name %q", t.Name)
		}
		batch[t.Name] = true
		shard := c.ShardFor(t.Name)
		perShard[shard] = append(perShard[shard], serve.EncodeTable(t))
		perShardNames[shard] = append(perShardNames[shard], t.Name)
	}
	involved := involvedShards(perShardNames)
	if err := c.probeInvolved(involved); err != nil {
		return err
	}
	c.beginMutation()
	defer c.endMutation()
	ctx, cancel := c.callCtx()
	defer cancel()
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		i := involved[j]
		errs[j] = c.shards[i].add(ctx, perShard[i])
	})
	if firstErr(errs) == nil {
		return nil
	}
	// Compensate: remove the sub-batches that did apply, so the catalog
	// returns to its pre-Add state. Best effort — a shard dying between
	// apply and rollback leaves its sub-batch behind, which the error
	// makes loud rather than silent.
	rbCtx, rbCancel := c.callCtx()
	defer rbCancel()
	par.For(len(involved), func(j int) {
		if errs[j] == nil {
			_ = c.shards[involved[j]].remove(rbCtx, perShardNames[involved[j]])
		}
	})
	return firstErr(errs)
}

// Remove validates that every named table exists (fetching the doomed
// tables in the same pass — they are the rollback material), probes, then
// applies per shard. Compensation mirrors Add: shards that already removed
// get their tables re-added if another shard fails.
func (c *Coordinator) Remove(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	doomed := make(map[string]bool, len(names))
	perShard := make([][]string, len(c.shards))
	for _, n := range names {
		if !doomed[n] {
			doomed[n] = true
			shard := c.ShardFor(n)
			perShard[shard] = append(perShard[shard], n)
		}
	}
	involved := involvedShards(perShard)
	if err := c.probeInvolved(involved); err != nil {
		return err
	}
	// Fetch the doomed tables: validates existence batch-atomically
	// (unknown names reject the whole batch, as lake.Remove does) and
	// provides the rollback payload.
	ctx, cancel := c.callCtx()
	defer cancel()
	fetched := make([]serve.LakeTables, len(involved))
	ferrs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		i := involved[j]
		if fetched[j], ferrs[j] = c.shards[i].getTables(ctx, perShard[i]); ferrs[j] == nil {
			_, ferrs[j] = tableMap(i, fetched[j])
		}
	})
	if err := firstErr(ferrs); err != nil {
		return fmt.Errorf("cluster: remove validation: %w", err)
	}
	for _, resp := range fetched {
		if len(resp.Missing) > 0 {
			return fmt.Errorf("lake: remove: no table %q", resp.Missing[0])
		}
	}
	c.beginMutation()
	defer c.endMutation()
	mctx, mcancel := c.callCtx()
	defer mcancel()
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		errs[j] = c.shards[involved[j]].remove(mctx, perShard[involved[j]])
	})
	if firstErr(errs) == nil {
		return nil
	}
	rbCtx, rbCancel := c.callCtx()
	defer rbCancel()
	par.For(len(involved), func(j int) {
		if errs[j] == nil {
			tables := make([]serve.TableJSON, len(fetched[j].Tables))
			for k, lt := range fetched[j].Tables {
				tables[k] = serve.EncodeTable(lt.Table)
			}
			_ = c.shards[involved[j]].add(rbCtx, tables)
		}
	})
	return firstErr(errs)
}

// Compact asks every shard to fold its mutation debt. Advisory and
// answer-preserving: down shards are skipped (they compact on restart
// recovery anyway) and no epoch ticks.
func (c *Coordinator) Compact() {
	ctx, cancel := c.callCtx()
	defer cancel()
	par.For(len(c.shards), func(i int) {
		_ = c.shards[i].compact(ctx)
	})
}

// RefreshKB is a no-op in cluster mode: each shard process owns its KB
// lifecycle (it annotated its tables at build/restore time), and the
// coordinator's KB feeds only the cross-shard stages, whose annotator is
// rebuilt per construction. It reports false — nothing was stale.
func (c *Coordinator) RefreshKB() bool { return false }

// Knowledge returns the coordinator-side knowledge base.
func (c *Coordinator) Knowledge() *kb.KB { return c.knowledge }

// Annotator returns the coordinator-level KB annotation cache for the
// cross-shard stages — the exact analogue of lake.Sharded's composite
// annotator.
func (c *Coordinator) Annotator() *kb.Annotator { return c.annotator }

// Dict returns the coordinator-level value dictionary; cross-shard
// integration interns into it lazily.
func (c *Coordinator) Dict() *table.Dict { return c.dict }

// SketchEngine reports the engine the shards run (manifest-pinned or
// probed at construction).
func (c *Coordinator) SketchEngine() sketch.Engine { return c.engine }

// unboundedK is the K sent to shards when the caller asked for an
// unlimited ranking (k <= 0): shard-side core.Discover would coerce 0 to
// its default of 10, which is not "all".
const unboundedK = 1 << 30

// RunShard runs every discoverer on one shard in one round trip: the shard
// executes the methods by name against its own lake, and their
// (name, score, column) tuples come back slot-indexed with name-only stub
// tables for discovery.RunAll to materialize after the merge. Scores cross
// the wire bit-exactly (shortest-round-trip float64 JSON).
func (c *Coordinator) RunShard(ctx context.Context, shard int, ds []discovery.Discoverer, q *table.Table, queryCol, k int) ([][]discovery.Result, error) {
	if k <= 0 {
		k = unboundedK
	}
	methods := make([]string, len(ds))
	for i, d := range ds {
		methods[i] = d.Name()
	}
	resp, err := c.shards[shard].discover(ctx, serve.DiscoverRequest{Query: serve.EncodeTable(q), QueryColumn: queryCol, Methods: methods, K: k})
	if err != nil {
		return nil, err
	}
	out := make([][]discovery.Result, len(methods))
	for i, method := range methods {
		wire := resp.PerMethod[method]
		out[i] = make([]discovery.Result, len(wire))
		for j, r := range wire {
			out[i][j] = discovery.Result{Table: table.New(r.Table), Score: r.Score, Method: method, Column: r.Column}
		}
	}
	return out, nil
}

// DiscoverShard runs one discoverer on one shard over the wire — RunShard
// with a single discoverer.
func (c *Coordinator) DiscoverShard(ctx context.Context, shard int, d discovery.Discoverer, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
	out, err := c.RunShard(ctx, shard, []discovery.Discoverer{d}, q, queryCol, k)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ResolveTables fetches the named tables, grouped by their owning shard
// into one batch per shard. Names the shards do not hold are absent from
// the map. Any failed batch fails the call: a shard that is unreachable
// yields a *ShardError matching discovery.ErrShardUnavailable, so callers
// can report it instead of silently missing its tables.
func (c *Coordinator) ResolveTables(ctx context.Context, names []string) (map[string]*table.Table, error) {
	perShard := make([][]string, len(c.shards))
	for _, n := range names {
		shard := c.ShardFor(n)
		perShard[shard] = append(perShard[shard], n)
	}
	involved := involvedShards(perShard)
	resolved := make([]map[string]*table.Table, len(involved))
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		i := involved[j]
		resp, err := c.shards[i].getTables(ctx, perShard[i])
		if err != nil {
			errs[j] = err
			return
		}
		resolved[j], errs[j] = tableMap(i, resp)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out := make(map[string]*table.Table, len(names))
	for _, m := range resolved {
		for n, t := range m {
			out[n] = t
		}
	}
	return out, nil
}

// tableMap keys a shard's fetched tables by name. A table the shard sent
// malformed fails the whole batch.
func tableMap(shard int, resp serve.LakeTables) (map[string]*table.Table, error) {
	m := make(map[string]*table.Table, len(resp.Tables))
	for _, lt := range resp.Tables {
		if lt.Err != nil {
			return nil, fmt.Errorf("cluster: shard %d: malformed table %q: %w", shard, lt.Name, lt.Err)
		}
		m[lt.Name] = lt.Table
	}
	return m, nil
}

// ShardHealth probes every shard's health and size concurrently — the
// coordinator /healthz aggregation.
func (c *Coordinator) ShardHealth(ctx context.Context) []serve.ShardHealth {
	return probeAll(ctx, c.shards, c.cfg.ProbeTimeout)
}

// ShardMetrics snapshots the per-shard fan-out transport counters — the
// coordinator /metrics aggregation.
func (c *Coordinator) ShardMetrics() []serve.ShardMetrics {
	out := make([]serve.ShardMetrics, len(c.shards))
	for i, sc := range c.shards {
		p50, p99, max, sum, count := sc.lat.Quantiles()
		out[i] = serve.ShardMetrics{
			Shard:   i,
			Addr:    sc.addr,
			Calls:   sc.calls.Load(),
			Errors:  sc.errs.Load(),
			Retries: sc.retryCount.Load(),
			Count:   count,
			P50NS:   int64(p50),
			P99NS:   int64(p99),
			MaxNS:   int64(max),
			SumNS:   int64(sum),
		}
	}
	return out
}

// CloseIdleConnections drops the pooled transport's idle shard
// connections — tests and shutdown paths use it so keep-alive conns stop
// holding goroutines.
func (c *Coordinator) CloseIdleConnections() {
	if len(c.shards) > 0 {
		c.shards[0].hc.CloseIdleConnections()
	}
}

// Addrs returns the normalized shard base URLs in shard order.
func (c *Coordinator) Addrs() []string {
	out := make([]string, len(c.shards))
	for i, sc := range c.shards {
		out[i] = sc.addr
	}
	return out
}

// ProbeShards probes each address's health and size without building a
// Coordinator — shardctl's path, which must keep working when every shard
// is down and no engine is resolvable. Only malformed addresses error;
// unreachable shards report Status "down".
func ProbeShards(ctx context.Context, addrs []string, timeout time.Duration) ([]serve.ShardHealth, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	clients, err := newShardClients(addrs, &http.Client{}, timeout, 0, 0)
	if err != nil {
		return nil, err
	}
	return probeAll(ctx, clients, timeout), nil
}

// probeAll probes each shard's /healthz and, when it answers, its size
// from the epoch endpoint, concurrently and each under its own timeout.
// Unreachable shards report Status "down" with the error.
func probeAll(ctx context.Context, shards []*shardClient, timeout time.Duration) []serve.ShardHealth {
	out := make([]serve.ShardHealth, len(shards))
	par.For(len(shards), func(i int) {
		sh := serve.ShardHealth{Shard: i, Addr: shards[i].addr}
		pctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		h, err := shards[i].health(pctx)
		if err != nil {
			sh.Status = "down"
			sh.Error = err.Error()
			out[i] = sh
			return
		}
		sh.Status = h.Status
		if ep, err := shards[i].epochs(pctx); err == nil {
			sh.Size = ep.Size
		}
		out[i] = sh
	})
	return out
}

// involvedShards lists the shard indices with non-empty slices, ascending.
func involvedShards[T any](perShard [][]T) []int {
	var out []int
	for i := range perShard {
		if len(perShard[i]) > 0 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// firstErr returns the first non-nil error — slot order, so deterministic.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
