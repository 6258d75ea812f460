package discovery

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/lake"
	"repro/internal/par"
	"repro/internal/table"
)

// Target is what a discovery run executes against: a set of shards plus the
// seqlock epoch vector that guards multi-index reads. In-process targets
// (*lake.Lake as its own single shard, *lake.Sharded, the pipeline's
// lake.Catalog) also expose `Shards() []*lake.Lake`, and discoverers run
// directly against each shard; remote targets implement Remote.
type Target interface {
	// Epochs samples the target's mutation-epoch vector — see
	// lake.Catalog.Epochs for the seqlock protocol. A clean run samples
	// the same all-even vector before and after its fan-out.
	Epochs() []uint64
}

// localTarget is the in-process shard access every pre-cluster target
// provides; discoverers receive the concrete shard lakes directly.
type localTarget interface {
	Shards() []*lake.Lake
}

// Remote extends Target for shard sets reached over a transport (the
// cluster coordinator's HTTP shards): one RunShard call per shard carries
// every discoverer, and the merged top-k's name-only stub tables are
// materialized with one ResolveTables call per shard.
type Remote interface {
	Target
	// NumShards reports the shard count (fixed for the target's lifetime).
	NumShards() int
	// RunShard runs every discoverer on one shard and returns their
	// rankings slot-indexed: out[i] is ds[i]'s ranking on that shard. An
	// error wrapping ErrShardUnavailable marks the shard down or degraded
	// — tolerated by RunAllPartial; any other error is a hard failure.
	RunShard(ctx context.Context, shard int, ds []Discoverer, q *table.Table, queryCol, k int) ([][]Result, error)
	// ResolveTables fetches the named tables. Names that no longer exist
	// (removed mid-run) are absent from the map. An unreachable shard is an
	// error wrapping ErrShardUnavailable, which the fan-out treats like a
	// failed RunShard on that shard.
	ResolveTables(ctx context.Context, names []string) (map[string]*table.Table, error)
}

// ErrShardUnavailable marks a per-shard discovery failure caused by the
// shard being unreachable, shedding, or degraded — as opposed to the query
// itself being invalid. RunAllPartial tolerates slots whose errors wrap it,
// returning the surviving shards' merged rankings plus a ShardError per
// down shard; strict RunAll treats it like any other failure.
var ErrShardUnavailable = errors.New("shard unavailable")

// ShardError records that one shard contributed nothing to a partial run,
// and why. It wraps the underlying per-shard error, so errors.Is/As see
// through it (every ShardError from RunAllPartial wraps
// ErrShardUnavailable).
type ShardError struct {
	// Shard is the shard index within the target.
	Shard int
	// Err is the underlying failure, wrapping ErrShardUnavailable.
	Err error
}

func (e ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e ShardError) Unwrap() error { return e.Err }

// tornRetries is how many times RunAll re-executes a run whose epoch
// samples prove it may have read the lake mid-mutation. One retry is
// enough: the retry re-reads the epoch, and a steady lake settles it;
// under continuous mutation churn the retried run's results are still a
// valid answer for *some* recent lake state, which is all a concurrent
// reader was ever promised.
const tornRetries = 1

// epochsClean reports whether an epoch-vector pair proves a run untorn:
// same length (a shard set that changed shape mid-run is a perturbation),
// elementwise equal, and every element even (no mutation in flight on
// either side of the run).
func epochsClean(e1, e2 []uint64) bool {
	if len(e1) != len(e2) {
		return false
	}
	for i := range e1 {
		if e1[i] != e2[i] || e1[i]%2 != 0 {
			return false
		}
	}
	return true
}

// RunAll executes the given discoverers over one query against every shard
// of the target and returns the merged result lists slot-indexed: out[i] is
// ds[i]'s ranked results over the whole catalog. Per-shard rankings
// concatenate and re-rank by (score descending, table name ascending) —
// table names are unique catalog-wide, so the comparator is total and the
// merge deterministic regardless of shard count or scheduling; against a
// single-shard target the output is byte-identical to running the methods
// sequentially. The shards' indexes are immutable and every shared interner
// is lock-protected, so discoverers — including user-defined similarity
// hooks (Fig. 4), which must be safe to call concurrently — run without
// coordination across the discoverer×shard fan-out. If any discoverer
// fails, the first error in (discoverer, shard) slot order is returned
// (deterministic regardless of which worker finished first); a remote
// shard's single call answers for all of its slots, so its failure takes
// the shard's first slot.
//
// Torn-read protection: a discovery run concurrent with Add/Remove could
// otherwise observe the lake between per-index updates (a table visible to
// JOSIE but not yet to SANTOS) — or, on a sharded target, observe some
// shards pre-mutation and others post-mutation. RunAll samples the target's
// mutation-epoch vector before and after the fan-out; any mutation
// overlapping the run perturbs some element (a mutation applied directly to
// one shard perturbs that shard's element even when the composite counter
// never moves), and RunAll re-executes once. A remote target's vector is
// its local counter over the mutations it routes; each shard process
// guards its own run. See lake.(*Lake).Epoch.
//
// Cancellation propagates to every worker: ctx flows into each discoverer
// (the built-ins check it inside their index scans) and the fan-out itself
// stops dispatching once ctx is done. RunAll returns only after every
// in-flight discoverer has returned — cancelling a query never leaks a
// worker goroutine — and reports ctx.Err() when the context was cancelled.
func RunAll(ctx context.Context, t Target, q *table.Table, queryCol, k int, ds []Discoverer) ([][]Result, error) {
	out, _, err := runAll(ctx, t, q, queryCol, k, ds, false)
	return out, err
}

// RunAllPartial is RunAll with graceful degradation: a shard whose discover
// or table-resolve error wraps ErrShardUnavailable — a remote shard down or
// degraded — contributes empty rankings instead of failing the run, and the
// down shards are reported as ShardErrors (deduplicated per shard,
// ascending shard order). A non-empty ShardError list is the "partial" marker the serving
// layer surfaces to clients: the rankings are complete over the reachable
// shards only. Any error not wrapping ErrShardUnavailable still fails the
// whole run, exactly as in RunAll.
func RunAllPartial(ctx context.Context, t Target, q *table.Table, queryCol, k int, ds []Discoverer) ([][]Result, []ShardError, error) {
	return runAll(ctx, t, q, queryCol, k, ds, true)
}

// runAll is the shared epoch-guarded driver: sample the epoch vector, run
// one fan-out (tolerant or strict), resample, and retry once on a perturbed
// pair.
func runAll(ctx context.Context, t Target, q *table.Table, queryCol, k int, ds []Discoverer, tolerate bool) ([][]Result, []ShardError, error) {
	for attempt := 0; ; attempt++ {
		e1 := t.Epochs()
		out, serrs, err := fanOut(ctx, t, q, queryCol, k, ds, tolerate)
		if err != nil {
			return nil, nil, err
		}
		// A clean run sampled the same all-even epoch vector on both sides:
		// no mutation was in flight anywhere when it started and none
		// started before it finished.
		if epochsClean(e1, t.Epochs()) || attempt == tornRetries {
			return out, serrs, nil
		}
	}
}

// fanOut is one epoch-unguarded execution of the discoverer×shard fan-out.
// Every target shares one slot layout — slot i*ns+s holds discoverer i's
// ranking on shard s, so error precedence and merge inputs are
// deterministic. In-process targets get one work item per slot. A remote
// target gets one work item per shard: a single RunShard call fills the
// shard's slots and reports a failure in the shard's first slot; its
// merged rankings are then materialized by resolve.
func fanOut(ctx context.Context, t Target, q *table.Table, queryCol, k int, ds []Discoverer, tolerate bool) ([][]Result, []ShardError, error) {
	nd := len(ds)
	var (
		ns, items int
		per       [][]Result
		errs      []error
		work      func(j int)
		remote    Remote
	)
	switch tt := t.(type) {
	case localTarget:
		shards := tt.Shards()
		ns, items = len(shards), nd*len(shards)
		work = func(j int) { per[j], errs[j] = ds[j/ns].Discover(ctx, shards[j%ns], q, queryCol, k) }
	case Remote:
		remote, ns = tt, tt.NumShards()
		if nd > 0 {
			items = ns
		}
		work = func(s int) {
			var rs [][]Result
			rs, errs[s] = tt.RunShard(ctx, s, ds, q, queryCol, k)
			for i, r := range rs {
				per[i*ns+s] = r
			}
		}
	default:
		return nil, nil, fmt.Errorf("discovery: target %T exposes neither in-process shards nor a remote transport", t)
	}
	per = make([][]Result, nd*ns)
	errs = make([]error, nd*ns)
	ferr := par.ForCtx(ctx, items, func(j int) {
		// Discoverers ran on the caller's goroutine before the fan-out, where
		// a server could recover a misbehaving user hook; on a worker
		// goroutine a panic would kill the process, so contain it here and
		// surface it as that slot's error.
		defer func() {
			if r := recover(); r != nil {
				errs[j] = fmt.Errorf("discovery: %q panicked: %v", ds[j/ns].Name(), r)
			}
		}()
		work(j)
	})
	if ferr != nil {
		return nil, nil, ferr
	}
	serrs, err := collectSlots(per, errs, ns, tolerate)
	if err != nil {
		return nil, nil, err
	}
	if remote == nil {
		return mergeSlots(per, nd, ns, k, len(serrs) > 0), serrs, nil
	}
	return resolve(ctx, remote, per, serrs, nd, ns, k, tolerate)
}

// collectSlots applies the tolerance policy to one fan-out's slot errors:
// hard errors surface first-in-slot-order; when tolerate is set, a slot
// error wrapping ErrShardUnavailable marks its shard down, clears all of
// that shard's slots, and is recorded once per shard in shard order.
func collectSlots(per [][]Result, errs []error, ns int, tolerate bool) ([]ShardError, error) {
	down := make(map[int]error, ns)
	for j, err := range errs {
		if err == nil {
			continue
		}
		if !tolerate || !errors.Is(err, ErrShardUnavailable) {
			return nil, err
		}
		if _, seen := down[j%ns]; !seen {
			down[j%ns] = err
		}
	}
	var serrs []ShardError
	for shard := 0; shard < ns; shard++ {
		if err, ok := down[shard]; ok {
			serrs = append(serrs, ShardError{Shard: shard, Err: err})
			for j := shard; j < len(per); j += ns {
				per[j] = nil
			}
		}
	}
	return serrs, nil
}

// mergeSlots merges each discoverer's per-shard rankings. A single
// complete shard's rankings pass through untouched.
func mergeSlots(per [][]Result, nd, ns, k int, partial bool) [][]Result {
	out := make([][]Result, nd)
	if ns == 1 && !partial {
		copy(out, per)
		return out
	}
	for i := range out {
		out[i] = mergeShardRankings(per[i*ns:(i+1)*ns], k)
	}
	return out
}

// resolve materializes a remote run's merged top-k, which arrives as
// name-only stubs: each shard gets one ResolveTables call for its names
// that made the cut (fetching full candidate lists would defeat the
// truncation). A failed call goes through collectSlots like a failed
// RunShard. A shard dropped that way leaves the merge, which reruns so
// live shards' results below the cut move up and are resolved in turn;
// every round drops a shard, so the loop ends. A name that resolves to
// nothing (removed mid-run) keeps its stub — the entry stays correct by
// (name, score), and Discover excludes column-less stubs from the
// integration set.
func resolve(ctx context.Context, t Remote, per [][]Result, serrs []ShardError, nd, ns, k int, tolerate bool) ([][]Result, []ShardError, error) {
	owner := make(map[string]int)
	for j, rs := range per {
		for _, r := range rs {
			owner[r.Table.Name] = j % ns
		}
	}
	resolved := make(map[string]*table.Table) // nil: asked, not found
	for {
		out := mergeSlots(per, nd, ns, k, len(serrs) > 0)
		names := make([][]string, ns)
		for _, rs := range out {
			for _, r := range rs {
				if _, asked := resolved[r.Table.Name]; !asked {
					resolved[r.Table.Name] = nil
					s := owner[r.Table.Name]
					names[s] = append(names[s], r.Table.Name)
				}
			}
		}
		got := make([]map[string]*table.Table, ns)
		errs := make([]error, nd*ns)
		ferr := par.ForCtx(ctx, ns, func(s int) {
			if len(names[s]) > 0 {
				got[s], errs[s] = t.ResolveTables(ctx, names[s])
			}
		})
		if ferr != nil {
			return nil, nil, ferr
		}
		down, err := collectSlots(per, errs, ns, tolerate)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range got {
			maps.Copy(resolved, m)
		}
		if len(down) > 0 {
			serrs = append(serrs, down...)
			sort.Slice(serrs, func(a, b int) bool { return serrs[a].Shard < serrs[b].Shard })
			continue
		}
		for _, rs := range out {
			for i := range rs {
				if tbl := resolved[rs[i].Table.Name]; tbl != nil {
					rs[i].Table = tbl
				}
			}
		}
		return out, serrs, nil
	}
}

// mergeShardRankings concatenates one discoverer's per-shard rankings and
// re-ranks them globally. Every discoverer reports at most one result per
// table and each table lives on exactly one shard, so the concatenation
// has no duplicates and the (score descending, name ascending) comparator
// — the same order rankResults produces — is total. Per-shard lists were
// already truncated to their local top-k, which is safe: a shard's k+1st
// result can never enter the global top k.
func mergeShardRankings(lists [][]Result, k int) []Result {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]Result, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.SortFunc(out, compareResults)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Resolve maps method names to registered discoverers, in input order.
// Unknown names fail with the available set, before any discoverer runs.
func (r *Registry) Resolve(names []string) ([]Discoverer, error) {
	ds := make([]Discoverer, len(names))
	for i, name := range names {
		d, ok := r.Get(name)
		if !ok {
			return nil, fmt.Errorf("discovery: unknown method %q (have %v)", name, r.Names())
		}
		ds[i] = d
	}
	return ds, nil
}

// Discover is the full discovery stage in one call: resolve the named
// methods against the registry, fan them out over the target's shards with
// RunAllPartial, and merge the per-method rankings into the integration set
// ("we persist the set of tables found by all techniques"). perMethod is
// keyed by method name; the integration set lists the query table first,
// then discovered tables deduplicated in method order then rank order
// (excluding any result whose table could not be materialized — a
// column-less stub cannot be integrated). shardErrs is non-empty when the
// run was partial: some shards were unreachable and contributed nothing
// (see RunAllPartial) — impossible for in-process targets, which either
// answer or fail hard. Cancelling ctx aborts the fan-out and returns
// ctx.Err() (see RunAll).
func Discover(ctx context.Context, r *Registry, t Target, q *table.Table, queryCol, k int, methods []string) (perMethod map[string][]Result, integrationSet []*table.Table, shardErrs []ShardError, err error) {
	ds, err := r.Resolve(methods)
	if err != nil {
		return nil, nil, nil, err
	}
	all, shardErrs, err := RunAllPartial(ctx, t, q, queryCol, k, ds)
	if err != nil {
		return nil, nil, nil, err
	}
	perMethod = make(map[string][]Result, len(methods))
	for i, m := range methods {
		perMethod[m] = all[i]
	}
	integrable := make([][]Result, len(all))
	for i, rs := range all {
		keep := make([]Result, 0, len(rs))
		for _, r := range rs {
			if r.Table.NumCols() > 0 {
				keep = append(keep, r)
			}
		}
		integrable[i] = keep
	}
	return perMethod, IntegrationSet(q, integrable...), shardErrs, nil
}
