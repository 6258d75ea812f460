package lake

import (
	"repro/internal/kb"
	"repro/internal/sketch"
	"repro/internal/table"
)

// Catalog is the mutable table-repository contract the pipeline and the
// serving layer consume: everything they need from a lake without naming
// its concrete shape. *Lake (one shard — itself), *Sharded (N in-process
// shards behind a routing hash), and cluster.Coordinator (N remote
// `dialite serve` shard processes) all satisfy it, which is what lets
// `dialite serve -shards N` and `dialite serve -coordinator` reuse every
// endpoint unchanged.
//
// Discovery never sees a Catalog: discoverers run against one concrete
// *Lake at a time, and discovery.RunAll scatters them over the catalog's
// shards (in-process via an optional `Shards() []*Lake` method, remote via
// discovery.Remote) and merges the per-shard rankings deterministically.
// Epochs is the torn-read guard for that scatter — see Lake.Epoch for the
// seqlock protocol of each element.
type Catalog interface {
	// Epochs samples the catalog's mutation-epoch vector: one seqlock
	// counter per epoch domain (a plain Lake has one; Sharded has a
	// composite counter plus one per shard; a remote coordinator has only
	// its local counter over routed mutations, since each shard process
	// guards its own reads). Every element is even when that domain is
	// settled and odd while a mutation is applying per-index deltas. A
	// multi-index reader that samples the vector before and after a run and
	// sees the same all-even vector (same length, elementwise equal) is
	// guaranteed the run was not torn; any other pair means a retry.
	Epochs() []uint64

	// Catalog access.
	Get(name string) (*table.Table, bool)
	Tables() []*table.Table
	Size() int

	// Mutation.
	Add(tables ...*table.Table) error
	Remove(names ...string) error
	Compact()
	RefreshKB() bool

	// Shared state the integration/analysis stages read.
	Knowledge() *kb.KB
	Annotator() *kb.Annotator
	Dict() *table.Dict
	SketchEngine() sketch.Engine
}

var (
	_ Catalog = (*Lake)(nil)
	_ Catalog = (*Sharded)(nil)
)
