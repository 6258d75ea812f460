package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
)

// perLayer lists the per-layer metrics of the traced run, in report
// order. A metric of a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.decode_ms", "ms"}, {"serve.encode_ms", "ms"}, {"serve.resp_kb", "KB"},
	{"serve.server_ms", "ms"}, {"serve.shed_ratio", "ratio"}, {"serve.error_ratio", "ratio"},
	{"core.discover_ms", "ms"}, {"core.integrate_ms", "ms"}, {"core.resolve_ms", "ms"}, {"core.correlate_ms", "ms"},
	{"discovery.discover_ms", "ms"}, {"discovery.santos_union_ms", "ms"}, {"discovery.lsh_join_ms", "ms"},
	{"discovery.josie_join_ms", "ms"}, {"discovery.syntactic_union_ms", "ms"}, {"discovery.integration_set_tables", "count"},
	{"schemamatch.align_ms", "ms"}, {"schemamatch.columns", "count"}, {"integrate.prepare_ms", "ms"}, {"integrate.run_ms", "ms"},
	{"fd.closure_ms", "ms"}, {"fd.tuples_in", "count"}, {"fd.tuples_out", "count"},
	{"er.resolve_ms", "ms"}, {"er.pairs", "count"}, {"er.clusters", "count"}, {"analyze.pearson_ms", "ms"},
	{"kb.synthesize_ms", "ms"}, {"kb.compile_ms", "ms"}, {"table.load_csv_ms", "ms"},
	{"lake.extract_ms", "ms"}, {"lake.santos_build_ms", "ms"}, {"lake.lsh_build_ms", "ms"}, {"lake.josie_build_ms", "ms"},
	{"lake.add_ms", "ms"}, {"lake.remove_ms", "ms"}, {"persist.add_ms", "ms"}, {"persist.remove_ms", "ms"},
	{"persist.snapshot_ms", "ms"}, {"persist.wal_bytes_per_mutation", "bytes"},
	{"persist.disk_bytes_per_user_byte", "ratio"}, {"persist.open_ms", "ms"},
	{"cluster.calls_per_request", "count"}, {"cluster.rtt_p50_ms", "ms"}, {"cluster.retries", "count"},
	{"cluster.shard_errors", "count"}, {"cluster.discover_shard_ms", "ms"}, {"cluster.resolve_tables_ms", "ms"},
	{"runtime.alloc_kb_per_request", "KB"}, {"runtime.gc_cycles_per_1k_requests", "count"},
	{"bench.gen_lag_p90_ms", "ms"}, {"bench.trace_overhead_ratio", "ratio"},
}

// replaysPerKind bounds the traced replay: this many bodies of each
// request kind are replayed.
const replaysPerKind = 16

// runTraced sets up once with spans, runs the open-loop phase for the
// server-side and runtime counters, then replays a sample of the requests
// in-process with a span at every layer boundary.
func runTraced(o options, in *inputs, workDir string) (*result, error) {
	ctx := context.Background()
	tr := newTracer()
	direct := map[string]float64{}
	runtime.GC()
	dep, err := setup(in, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer dep.stop()
	for _, st := range dep.stats {
		tr.count("lake.extract_ms", ms(st.DomainExtraction))
		tr.count("lake.santos_build_ms", ms(st.Santos))
		tr.count("lake.lsh_build_ms", ms(st.LSH))
		tr.count("lake.josie_build_ms", ms(st.Josie))
	}

	// Open loop, as in the measured run, for the counters only the
	// running server has.
	conns := runtime.NumCPU()
	cfg := workloadConfig[o.workload]
	c := newClient(dep.base, in, conns)
	defer c.close()
	before := serverTotals(dep.srv.MetricsSnapshot())
	shardsBefore := shardTotals(dep)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	openDur, _ := phases(o.seconds)
	outs := c.openLoop(schedule(newSource(in, o.seed), cfg.rate, openDur), conns)
	runtime.ReadMemStats(&m1)
	after := serverTotals(dep.srv.MetricsSnapshot())
	shardsAfter := shardTotals(dep)
	failed := 0
	lags := make([]float64, 0, len(outs))
	for i := range outs {
		lags = append(lags, ms(outs[i].lag))
		if !outs[i].ok() {
			failed++
		}
	}
	sort.Float64s(lags)
	n := float64(len(outs))
	direct["bench.gen_lag_p90_ms"] = quantile(lags, 0.9)
	direct["runtime.alloc_kb_per_request"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	direct["runtime.gc_cycles_per_1k_requests"] = float64(m1.NumGC-m0.NumGC) * 1000 / n
	served := after.count - before.count
	if served > 0 {
		direct["serve.server_ms"] = float64(after.sumNS-before.sumNS) / 1e6 / float64(served)
	}
	if arrivals := (after.admitted - before.admitted) + (after.shed - before.shed); arrivals > 0 {
		direct["serve.shed_ratio"] = float64(after.shed-before.shed) / float64(arrivals)
		direct["serve.error_ratio"] = float64(after.errors-before.errors) / float64(arrivals)
	}
	if dep.coord != nil {
		direct["cluster.calls_per_request"] = float64(shardsAfter.calls-shardsBefore.calls) / n
		direct["cluster.retries"] = float64(shardsAfter.retries - shardsBefore.retries)
		direct["cluster.shard_errors"] = float64(shardsAfter.errors - shardsBefore.errors)
		direct["cluster.rtt_p50_ms"] = shardsAfter.p50MS
	}

	chk := checkRun(ctx, in, dep, c)
	errs := []error{chk.err}
	if failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d requests failed", failed, len(outs)))
	}

	// Replay: each sampled request once through core.Pipeline (untraced)
	// and once through the traced composition of its layers.
	rp := &replayer{tr: tr, dep: dep, p: dep.pipe}
	var plain, traced time.Duration
	req := 0
	for k, kind := range in.kinds {
		pool := in.pools[k]
		if len(pool) > replaysPerKind {
			pool = pool[:replaysPerKind]
		}
		for _, b := range pool {
			req++
			// Alternate which side runs first, so neither always meets
			// caches the other warmed.
			var want, got []byte
			var err, rerr error
			timed := func(d *time.Duration, f func()) {
				t0 := time.Now()
				f()
				*d += time.Since(t0)
			}
			ref := func() { want, err = reference(ctx, rp.p, kind.path, b.data) }
			rep := func() { got, rerr = rp.replay(ctx, kind.path, b.data, req) }
			if req%2 == 0 {
				timed(&plain, ref)
				timed(&traced, rep)
			} else {
				timed(&traced, rep)
				timed(&plain, ref)
			}
			switch {
			case err != nil:
				errs = append(errs, err)
			case rerr != nil:
				errs = append(errs, rerr)
			case string(got) != string(want):
				errs = append(errs, fmt.Errorf("traced replay of body %d (%s) differs from core.Pipeline's answer", b.id, kind.name))
			}
			if kind.path == "/v1/discover" || kind.path == "/v1/pipeline" {
				if err := rp.discoverersAlone(ctx, b.data, req); err != nil {
					errs = append(errs, err)
				}
			}
		}
	}
	if plain > 0 {
		direct["bench.trace_overhead_ratio"] = float64(traced) / float64(plain)
	}
	// On search, writes are replayed through a fresh durable store over a
	// copy of its lake, for the lake and persist write layers.
	if in.workload == wSearch {
		st, storeDir, err := newStore(dep, workDir, tr)
		if err == nil {
			err = replayWrites(in, dep, st, storeDir, tr, direct)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	if err := tr.check(); err != nil {
		errs = append(errs, err)
	}
	traceDir := filepath.Join(o.root, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}

	stats := tr.layers()
	printSelfTable(os.Stdout, stats)
	res := &result{Attempted: len(outs), Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := direct[m.name]
		if !ok {
			if s, isSpan := stats[spanMetric(m.name)]; isSpan && m.unit == "ms" {
				v = s.medianMS
			} else if xs := tr.counts[m.name]; len(xs) > 0 {
				sort.Float64s(xs)
				v = median(xs)
			}
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("%-36s %12.4f %s\n", m.name, v, m.unit)
	}
	printChecks(chk)
	var all []error
	for _, e := range errs {
		if e != nil {
			all = append(all, e)
		}
	}
	res.Correct = len(all) == 0
	for _, e := range all {
		fmt.Println("CHECK FAILED:", e)
	}
	return res, nil
}

type totals struct {
	count, sumNS, admitted, shed, errors uint64
}

func serverTotals(ms []serve.EndpointMetrics) totals {
	var t totals
	for _, m := range ms {
		t.count += m.Count
		t.sumNS += uint64(m.SumNS)
		t.admitted += m.Admitted
		t.shed += m.Shed
		t.errors += m.Errors
	}
	return t
}

type shardSums struct {
	calls, retries, errors uint64
	p50MS                  float64
}

func shardTotals(dep *deployment) shardSums {
	var s shardSums
	if dep.coord == nil {
		return s
	}
	var p50s []float64
	for _, m := range dep.coord.ShardMetrics() {
		s.calls += m.Calls
		s.retries += m.Retries
		s.errors += m.Errors
		p50s = append(p50s, float64(m.P50NS)/1e6)
	}
	sort.Float64s(p50s)
	s.p50MS = median(p50s)
	return s
}

// replayWrites times lake writes from outside: on an unpersisted twin of
// the lake (lake.add/remove), and through the store st (persist.add/remove,
// explicit snapshots, the WAL growth per write, the store's size over the
// live data, and reopening it).
func replayWrites(in *inputs, dep *deployment, st *persist.Store, storeDir string, tr *tracer, direct map[string]float64) error {
	twin, err := lake.New(dep.tables, lake.Options{Knowledge: dep.know})
	if err != nil {
		return err
	}
	// An explicit snapshot follows every snapshotEvery writes.
	const snapshotEvery = 16
	muts := newMutationSource(in.seed, in.families)
	for m := 0; m < 4*snapshotEvery; m++ {
		mut := muts.next()
		var tables []*table.Table
		if mut.add {
			tables, err = decodeAdd(mut.data)
			if err != nil {
				return err
			}
		}
		name := "lake.remove"
		if mut.add {
			name = "lake.add"
		}
		sp := tr.start(name, 0, 0)
		if mut.add {
			err = twin.Add(tables...)
		} else {
			err = twin.Remove(mut.names...)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		before := st.Status()
		name = "persist.remove"
		if mut.add {
			name = "persist.add"
		}
		sp = tr.start(name, 0, 0)
		if mut.add {
			err = st.Add(tables...)
		} else {
			err = st.Remove(mut.names...)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		if after := st.Status(); after.SnapshotSeq == before.SnapshotSeq {
			tr.count("persist.wal_bytes_per_mutation", float64(after.WALBytes-before.WALBytes))
		}
		if m%snapshotEvery == snapshotEvery-1 {
			sp := tr.start("persist.snapshot", 0, 0)
			err := st.Snapshot()
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	disk, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	var user countingWriter
	for _, t := range st.Lake().Tables() {
		if err := t.WriteCSV(&user); err != nil {
			return err
		}
	}
	direct["persist.disk_bytes_per_user_byte"] = float64(disk) / float64(user.n)
	if err := st.Close(); err != nil {
		return err
	}
	sp := tr.start("persist.open", 0, 0)
	re, err := persist.Open(storeDir, persist.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	return re.Close()
}

// newStore makes a durable store over a fresh copy of the deployment's
// lake, in a new directory under workDir.
func newStore(dep *deployment, workDir string, tr *tracer) (*persist.Store, string, error) {
	l, err := lake.New(dep.tables, lake.Options{Knowledge: dep.know})
	if err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, "", err
	}
	sp := tr.start("persist.create", 0, 0)
	st, err := persist.Create(dir, l, persist.Options{})
	tr.end(sp)
	return st, dir, err
}

func decodeAdd(data []byte) ([]*table.Table, error) {
	var req serve.LakeAddRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	out := make([]*table.Table, 0, len(req.Tables))
	for _, tj := range req.Tables {
		t, err := tj.DecodeTable()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
