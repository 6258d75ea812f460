package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/serve"
	"repro/internal/table"
)

const (
	clusterShards = 3
	setupBudget   = 3 // seconds
	setupMax      = 40
)

// deployment is one served lake: the front server the load is sent to and
// everything behind it.
type deployment struct {
	base   string // front server URL
	pipe   *core.Pipeline
	srv    *serve.Server
	know   *kb.KB
	tables []*table.Table
	coord  *cluster.Coordinator // cluster
	stats  []lake.BuildStats    // per lake (per shard on cluster), at build time
	stops  []func() error       // servers, front last
}

// serveOn starts srv on a loopback port and returns its URL and a stop
// function that shuts it down and waits for it.
func serveOn(srv *serve.Server) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	stop := func() error {
		cancel()
		return <-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// waitReady polls /healthz until the server reports "ok".
func waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var h serve.HealthResponse
			derr := decodeJSON(resp, &h)
			if derr == nil && h.Status == "ok" {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server %s not ready after 30s", base)
}

// setup goes from the workload's CSV directory to a front server ready to
// answer: table.LoadDir, KB synthesis, lake.New or (cluster) the shard
// lakes, shard servers and the coordinator. Every call into a layer is a
// span of tr (a nil tracer records nothing).
func setup(in *inputs, tr *tracer) (dep *deployment, err error) {
	dep = &deployment{}
	defer func() {
		if err != nil {
			dep.stop()
		}
	}()
	root := tr.start("setup", 0, 0)
	defer tr.end(root)

	sp := tr.start("table.load_csv", root, 0)
	dep.tables, err = table.LoadDir(in.lakeDir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The served configuration of `dialite serve -synth`: the curated demo
	// KB merged with one synthesized over the whole lake.
	sp = tr.start("kb.synthesize", root, 0)
	syn := kb.Synthesize(dep.tables, kb.SynthesizeOptions{})
	tr.end(sp)
	sp = tr.start("kb.compile", root, 0)
	dep.know = kb.Demo().Merge(syn)
	dep.know.Compiled()
	tr.end(sp)

	var catalog lake.Catalog
	switch in.workload {
	case wCluster:
		perShard := make([][]*table.Table, clusterShards)
		for _, t := range dep.tables {
			i := lake.ShardIndex(t.Name, clusterShards)
			perShard[i] = append(perShard[i], t)
		}
		addrs := make([]string, clusterShards)
		for i, ts := range perShard {
			sp = tr.start("lake.new", root, 0)
			l, lerr := lake.New(ts, lake.Options{Knowledge: dep.know})
			tr.end(sp)
			if lerr != nil {
				return nil, lerr
			}
			dep.stats = append(dep.stats, l.Stats())
			sp = tr.start("cluster.shard_boot", root, 0)
			base, stop, serr := serveOn(serve.New(core.FromCatalog(l), serve.Config{}))
			if serr == nil {
				dep.stops = append(dep.stops, stop)
				serr = waitReady(base)
			}
			tr.end(sp)
			if serr != nil {
				return nil, serr
			}
			addrs[i] = base
		}
		sp = tr.start("cluster.coordinator_boot", root, 0)
		dep.coord, err = cluster.New(cluster.Config{Addrs: addrs, Knowledge: dep.know})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		catalog = dep.coord
	default:
		sp = tr.start("lake.new", root, 0)
		l, lerr := lake.New(dep.tables, lake.Options{Knowledge: dep.know})
		tr.end(sp)
		if lerr != nil {
			return nil, lerr
		}
		dep.stats = []lake.BuildStats{l.Stats()}
		catalog = l
	}
	dep.pipe = core.FromCatalog(catalog)
	dep.srv = serve.New(dep.pipe, serve.Config{})
	sp = tr.start("serve.boot", root, 0)
	base, stop, err := serveOn(dep.srv)
	if err == nil {
		dep.stops = append(dep.stops, stop)
		err = waitReady(base)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	dep.base = base
	return dep, nil
}

// stop shuts every server down, front first, and waits for them.
func (dep *deployment) stop() error {
	var errs []error
	for i := len(dep.stops) - 1; i >= 0; i-- {
		errs = append(errs, dep.stops[i]())
	}
	dep.stops = nil
	if dep.coord != nil {
		dep.coord.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// timedSetups sets the workload up at least n times, and again while the
// set-ups so far took under setupBudget (up to setupMax), so that short
// set-ups get a steadier median. It keeps the last deployment; the earlier
// ones are torn down. It returns the median set-up time.
func timedSetups(in *inputs, n int) (*deployment, float64, error) {
	var times []float64
	var dep *deployment
	var spent float64
	for i := 0; i < n || (spent < setupBudget && i < setupMax); i++ {
		if dep != nil {
			if err := dep.stop(); err != nil {
				return nil, 0, err
			}
			dep = nil
		}
		runtime.GC()
		t0 := time.Now()
		d, err := setup(in, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		spent += times[i]
		dep = d
	}
	sort.Float64s(times)
	return dep, times[len(times)/2], nil
}
