package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the id of the enclosing span (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans and per-call counts in memory until the run writes
// them out. A nil *tracer records nothing, so untraced code paths share
// the traced ones at the cost of a nil check.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{counts: map[string][]float64{}} }

func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count records one per-call value (a count or a size) under name.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// check verifies that every span ended and that no span's children sum
// past its own duration.
func (t *tracer) check() error {
	kids := map[int]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End.IsZero() {
			return fmt.Errorf("trace: span %q (id %d) never ended", s.Name, s.ID)
		}
		if s.Parent != 0 {
			kids[s.Parent] += s.dur()
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if k := kids[s.ID]; k > s.dur() {
			return fmt.Errorf("trace: children of span %q (id %d, req %d) sum to %v, past its own %v", s.Name, s.ID, s.Req, k, s.dur())
		}
	}
	return nil
}

// layerStat summarizes the spans of one name.
type layerStat struct {
	name        string
	calls       int
	medianMS    float64
	selfMedian  float64
	selfTotalMS float64
}

// layers computes per-name medians of span and self time (span minus the
// time its children cover; children of one span never overlap here, as
// every traced call is sequential within its parent).
func (t *tracer) layers() map[string]*layerStat {
	kids := map[int]time.Duration{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			kids[p] += t.spans[i].dur()
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(s.dur()-kids[s.ID]))
	}
	out := map[string]*layerStat{}
	for name, ds := range durs {
		ss := selfs[name]
		sort.Float64s(ds)
		total := 0.0
		for _, x := range ss {
			total += x
		}
		sort.Float64s(ss)
		out[name] = &layerStat{name: name, calls: len(ds), medianMS: median(ds), selfMedian: median(ss), selfTotalMS: total}
	}
	return out
}

// printSelfTable writes the per-layer self-time table, heaviest first.
func printSelfTable(w io.Writer, stats map[string]*layerStat) {
	list := make([]*layerStat, 0, len(stats))
	for _, s := range stats {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].selfTotalMS != list[j].selfTotalMS {
			return list[i].selfTotalMS > list[j].selfTotalMS
		}
		return list[i].name < list[j].name
	})
	fmt.Fprintf(w, "%-28s %7s %12s %12s %14s\n", "span", "calls", "median_ms", "self_p50_ms", "self_total_ms")
	for _, s := range list {
		fmt.Fprintf(w, "%-28s %7d %12.4f %12.4f %14.3f\n", s.name, s.calls, s.medianMS, s.selfMedian, s.selfTotalMS)
	}
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// median of sorted xs (the mean of the middle two for even lengths).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// spanMetric maps a metric name ("discovery.lsh_join_ms") to its span
// name ("discovery.lsh_join").
func spanMetric(metric string) string { return strings.TrimSuffix(metric, "_ms") }
