package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/fd"
	"repro/internal/integrate"
	"repro/internal/schemamatch"
	"repro/internal/serve"
	"repro/internal/table"
)

// decodeStrict decodes a request body the way the server does: numbers
// keep full precision, unknown fields and trailing data are errors.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}

// encodeAnswer renders a response body byte for byte as the server does.
func encodeAnswer(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// wireDiscover is the server's wire form of a discovery response.
func wireDiscover(resp *core.DiscoverResponse) serve.DiscoverResponse {
	out := serve.DiscoverResponse{PerMethod: make(map[string][]serve.DiscoverResult, len(resp.PerMethod))}
	for m, rs := range resp.PerMethod {
		list := make([]serve.DiscoverResult, 0, len(rs))
		for _, r := range rs {
			list = append(list, serve.DiscoverResult{Table: r.Table.Name, Score: r.Score, Method: r.Method, Column: r.Column})
		}
		out.PerMethod[m] = list
	}
	for _, t := range resp.IntegrationSet {
		out.IntegrationSet = append(out.IntegrationSet, t.Name)
	}
	if resp.Partial() {
		out.Partial = true
		for _, se := range resp.ShardErrors {
			out.ShardErrors = append(out.ShardErrors, serve.ShardErrorJSON{Shard: se.Shard, Error: se.Err.Error()})
		}
	}
	return out
}

// integrationSet resolves an integrate request's tables: named lake tables
// first, then inline ones.
func integrationSet(p *core.Pipeline, req serve.IntegrateRequest) ([]*table.Table, error) {
	var set []*table.Table
	for _, name := range req.Names {
		t, ok := p.Lake().Get(name)
		if !ok {
			return nil, fmt.Errorf("no table %q in lake", name)
		}
		set = append(set, t)
	}
	for _, tj := range req.Tables {
		t, err := tj.DecodeTable()
		if err != nil {
			return nil, err
		}
		set = append(set, t)
	}
	return set, nil
}

// reference answers one request in-process through core.Pipeline, the
// answer every HTTP response for the same body must equal byte for byte.
func reference(ctx context.Context, p *core.Pipeline, path string, data []byte) ([]byte, error) {
	switch path {
	case "/v1/discover":
		var req serve.DiscoverRequest
		if err := decodeStrict(data, &req); err != nil {
			return nil, err
		}
		q, err := req.Query.DecodeTable()
		if err != nil {
			return nil, err
		}
		resp, err := p.Discover(ctx, core.DiscoverRequest{Query: q, QueryColumn: req.QueryColumn, Methods: req.Methods, K: req.K})
		if err != nil {
			return nil, err
		}
		return encodeAnswer(wireDiscover(resp))
	case "/v1/pipeline":
		var req serve.PipelineRequest
		if err := decodeStrict(data, &req); err != nil {
			return nil, err
		}
		q, err := req.Query.DecodeTable()
		if err != nil {
			return nil, err
		}
		res, err := p.Run(ctx, core.RunRequest{Query: q, QueryColumn: req.QueryColumn, Methods: req.Methods, K: req.K, Operator: req.Operator, WithProvenance: req.WithProvenance})
		if err != nil {
			return nil, err
		}
		return encodeAnswer(serve.PipelineResponse{
			Discovery:   wireDiscover(res.Discovery),
			Integration: serve.IntegrateResponse{Table: serve.EncodeTable(res.Integration.Table), Operator: res.Integration.Operator},
		})
	case "/v1/integrate":
		var req serve.IntegrateRequest
		if err := decodeStrict(data, &req); err != nil {
			return nil, err
		}
		set, err := integrationSet(p, req)
		if err != nil {
			return nil, err
		}
		resp, err := p.Integrate(ctx, core.IntegrateRequest{Tables: set, Operator: req.Operator, WithProvenance: req.WithProvenance})
		if err != nil {
			return nil, err
		}
		return encodeAnswer(serve.IntegrateResponse{Table: serve.EncodeTable(resp.Table), Operator: resp.Operator})
	case "/v1/resolve":
		var req serve.ResolveRequest
		if err := decodeStrict(data, &req); err != nil {
			return nil, err
		}
		t, err := req.Table.DecodeTable()
		if err != nil {
			return nil, err
		}
		res, err := p.ResolveEntities(ctx, t, er.Options{Threshold: req.Threshold, Veto: req.Veto})
		if err != nil {
			return nil, err
		}
		return encodeAnswer(serve.ResolveResponse{Clusters: res.Clusters, Resolved: serve.EncodeTable(res.Resolved), Pairs: len(res.Pairs)})
	case "/v1/correlate":
		var req serve.CorrelateRequest
		if err := decodeStrict(data, &req); err != nil {
			return nil, err
		}
		t, err := req.Table.DecodeTable()
		if err != nil {
			return nil, err
		}
		r, n, err := p.Correlate(ctx, t, req.ColA, req.ColB)
		if err != nil {
			return nil, err
		}
		return encodeAnswer(serve.CorrelateResponse{R: r, N: n})
	}
	return nil, fmt.Errorf("no reference for %s", path)
}

// replayer re-runs requests in-process with a span around every call into
// a layer. The core stages are composed here from their layers' public
// functions, mirroring core.Pipeline, so each layer gets its own span; the
// replayed answers are checked against the HTTP answers like the
// reference ones.
type replayer struct {
	tr  *tracer
	dep *deployment
	p   *core.Pipeline
}

// replay answers one request with spans, the request's root first.
func (r *replayer) replay(ctx context.Context, path string, data []byte, req int) ([]byte, error) {
	root := r.tr.start("request", 0, req)
	defer r.tr.end(root)
	var answer any
	switch path {
	case "/v1/discover", "/v1/pipeline":
		var dr serve.PipelineRequest
		sp := r.tr.start("serve.decode", root, req)
		var err error
		if path == "/v1/discover" {
			var d serve.DiscoverRequest
			err = decodeStrict(data, &d)
			dr = serve.PipelineRequest{Query: d.Query, QueryColumn: d.QueryColumn, Methods: d.Methods, K: d.K}
		} else {
			err = decodeStrict(data, &dr)
		}
		var q *table.Table
		if err == nil {
			q, err = dr.Query.DecodeTable()
		}
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		disc, err := r.discover(ctx, root, req, q, dr.QueryColumn, dr.Methods, dr.K)
		if err != nil {
			return nil, err
		}
		if path == "/v1/discover" {
			answer = wireDiscover(disc)
			break
		}
		t, err := r.integrate(ctx, root, req, disc.IntegrationSet, dr.WithProvenance)
		if err != nil {
			return nil, err
		}
		answer = serve.PipelineResponse{Discovery: wireDiscover(disc), Integration: serve.IntegrateResponse{Table: serve.EncodeTable(t), Operator: "alite-fd"}}
	case "/v1/integrate":
		var ir serve.IntegrateRequest
		sp := r.tr.start("serve.decode", root, req)
		err := decodeStrict(data, &ir)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.tr.start("serve.resolve_names", root, req)
		set, err := integrationSet(r.p, ir)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t, err := r.integrate(ctx, root, req, set, ir.WithProvenance)
		if err != nil {
			return nil, err
		}
		answer = serve.IntegrateResponse{Table: serve.EncodeTable(t), Operator: "alite-fd"}
	case "/v1/resolve":
		var rr serve.ResolveRequest
		sp := r.tr.start("serve.decode", root, req)
		err := decodeStrict(data, &rr)
		var t *table.Table
		if err == nil {
			t, err = rr.Table.DecodeTable()
		}
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.tr.start("core.resolve", root, req)
		opts := er.Options{Threshold: rr.Threshold, Veto: rr.Veto, Knowledge: r.p.Lake().Knowledge()}
		if ann := r.p.Lake().Annotator(); ann.UpToDate(opts.Knowledge) {
			opts.Annotator = ann.ERScope()
		}
		ep := r.tr.start("er.resolve", sp, req)
		res, err := er.Resolve(ctx, t, opts)
		r.tr.end(ep)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.tr.count("er.pairs", float64(len(res.Pairs)))
		r.tr.count("er.clusters", float64(len(res.Clusters)))
		answer = serve.ResolveResponse{Clusters: res.Clusters, Resolved: serve.EncodeTable(res.Resolved), Pairs: len(res.Pairs)}
	case "/v1/correlate":
		var cr serve.CorrelateRequest
		sp := r.tr.start("serve.decode", root, req)
		err := decodeStrict(data, &cr)
		var t *table.Table
		if err == nil {
			t, err = cr.Table.DecodeTable()
		}
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.tr.start("core.correlate", root, req)
		a, okA := t.ColumnIndex(cr.ColA)
		b, okB := t.ColumnIndex(cr.ColB)
		if !okA || !okB {
			r.tr.end(sp)
			return nil, fmt.Errorf("correlate: missing column %q or %q", cr.ColA, cr.ColB)
		}
		ap := r.tr.start("analyze.pearson", sp, req)
		rho, n, err := analyze.Pearson(t, a, b)
		r.tr.end(ap)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		answer = serve.CorrelateResponse{R: rho, N: n}
	default:
		return nil, fmt.Errorf("no replay for %s", path)
	}
	sp := r.tr.start("serve.encode", root, req)
	out, err := encodeAnswer(answer)
	r.tr.end(sp)
	r.tr.count("serve.resp_kb", float64(len(out))/1024)
	return out, err
}

// discover mirrors core.Pipeline.Discover.
func (r *replayer) discover(ctx context.Context, parent, req int, q *table.Table, col int, methods []string, k int) (*core.DiscoverResponse, error) {
	sp := r.tr.start("core.discover", parent, req)
	defer r.tr.end(sp)
	if k < 0 || col < 0 || col >= q.NumCols() {
		return nil, fmt.Errorf("discover: bad k %d or query column %d", k, col)
	}
	if len(methods) == 0 {
		methods = core.DefaultMethods
	}
	if k == 0 {
		k = 10
	}
	dp := r.tr.start("discovery.discover", sp, req)
	perMethod, set, shardErrs, err := discovery.Discover(ctx, r.p.Discoverers(), r.p.Lake(), q, col, k, methods)
	r.tr.end(dp)
	if err != nil {
		return nil, err
	}
	r.tr.count("discovery.integration_set_tables", float64(len(set)))
	return &core.DiscoverResponse{PerMethod: perMethod, IntegrationSet: set, ShardErrors: shardErrs}, nil
}

// tracedMatcher spans the holistic matcher inside integrate.Prepare.
type tracedMatcher struct {
	inner       schemamatch.Matcher
	tr          *tracer
	parent, req int
}

func (m tracedMatcher) Align(tables []*table.Table) (schemamatch.Alignment, error) {
	sp := m.tr.start("schemamatch.align", m.parent, m.req)
	a, err := m.inner.Align(tables)
	m.tr.end(sp)
	cols := 0
	for _, t := range tables {
		cols += t.NumCols()
	}
	m.tr.count("schemamatch.columns", float64(cols))
	return a, err
}

// integrate mirrors core.Pipeline.Integrate with the default operator
// (integrate.Apply over integrate.ALITEFD sharing the lake dictionary).
func (r *replayer) integrate(ctx context.Context, parent, req int, tables []*table.Table, withProvenance bool) (*table.Table, error) {
	sp := r.tr.start("core.integrate", parent, req)
	defer r.tr.end(sp)
	pp := r.tr.start("integrate.prepare", sp, req)
	m := tracedMatcher{inner: schemamatch.Holistic{Knowledge: r.p.Lake().Knowledge()}, tr: r.tr, parent: pp, req: req}
	schema, sets, err := integrate.Prepare(tables, m, nil)
	r.tr.end(pp)
	if err != nil {
		return nil, err
	}
	rp := r.tr.start("integrate.run", sp, req)
	in := fd.Input{Schema: schema, Dict: r.p.Lake().Dict()}
	for _, s := range sets {
		in.Tuples = append(in.Tuples, s.Tuples...)
	}
	fp := r.tr.start("fd.closure", rp, req)
	tuples, err := fd.ALITECtx(ctx, in)
	r.tr.end(fp)
	r.tr.end(rp)
	if err != nil {
		return nil, err
	}
	r.tr.count("fd.tuples_in", float64(len(in.Tuples)))
	r.tr.count("fd.tuples_out", float64(len(tuples)))
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Name
	}
	return fd.ToTable(fmt.Sprintf("alite-fd(%s)", strings.Join(names, ",")), schema, tuples, withProvenance), nil
}

// discoverersAlone times each discoverer a discover body names, called on
// its own against the catalog, plus (cluster) each per-shard call and the
// table resolve of the merged ranking.
func (r *replayer) discoverersAlone(ctx context.Context, data []byte, req int) error {
	// A pipeline request's fields include all of a discover request's.
	var dr serve.PipelineRequest
	if err := decodeStrict(data, &dr); err != nil {
		return err
	}
	q, err := dr.Query.DecodeTable()
	if err != nil {
		return err
	}
	methods, k := dr.Methods, dr.K
	if len(methods) == 0 {
		methods = core.DefaultMethods
	}
	if k == 0 {
		k = 10
	}
	var names []string
	for _, m := range methods {
		d, ok := r.p.Discoverers().Get(m)
		if !ok {
			return fmt.Errorf("no discoverer %q", m)
		}
		sp := r.tr.start("discovery."+strings.ReplaceAll(m, "-", "_"), 0, req)
		res, err := discovery.RunAll(ctx, r.p.Lake(), q, dr.QueryColumn, k, []discovery.Discoverer{d})
		r.tr.end(sp)
		if err != nil {
			return err
		}
		for _, x := range res[0] {
			names = append(names, x.Table.Name)
		}
		if c := r.dep.coord; c != nil {
			for shard := 0; shard < c.NumShards(); shard++ {
				sp := r.tr.start("cluster.discover_shard", 0, req)
				_, err := c.DiscoverShard(ctx, shard, d, q, dr.QueryColumn, k)
				r.tr.end(sp)
				if err != nil {
					return err
				}
			}
		}
	}
	if c := r.dep.coord; c != nil {
		sp := r.tr.start("cluster.resolve_tables", 0, req)
		_, err := c.ResolveTables(ctx, names)
		r.tr.end(sp)
		return err
	}
	return nil
}
