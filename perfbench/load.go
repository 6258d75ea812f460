package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// item is one request to send: a body from a pool.
type item struct {
	due  time.Duration // open loop: offset of the scheduled send
	kind int
	b    *body
}

// outcome is what one request produced.
type outcome struct {
	kind   int
	lat    time.Duration // done - due (open loop), done - sent (closed loop)
	lag    time.Duration // sent - due
	done   time.Time
	status int
	err    error
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// source deals the workload's requests in a deterministic, stratified
// order: every deckSize requests hold each kind exactly share*deckSize
// times (shuffled), and each kind's bodies are dealt round robin in a
// shuffled order. Exact proportions keep the mix, and so the capacity and
// latency figures, from drifting with the draw.
type source struct {
	in   *inputs
	mu   sync.Mutex
	rng  *rand.Rand
	deck []int
	next []int   // per kind: position in its shuffled pool order
	pool [][]int // per kind: shuffled pool order
}

const deckSize = 100

func newSource(in *inputs, seed int64) *source {
	s := &source{in: in, rng: rand.New(rand.NewSource(seed)), next: make([]int, len(in.kinds)), pool: make([][]int, len(in.kinds))}
	for k := range in.kinds {
		s.pool[k] = s.rng.Perm(len(in.pools[k]))
	}
	return s
}

// deal returns the next request.
func (s *source) deal() item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.deck) == 0 {
		for k, spec := range s.in.kinds {
			for i := 0; i < int(spec.share*deckSize+0.5); i++ {
				s.deck = append(s.deck, k)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	kind := s.deck[0]
	s.deck = s.deck[1:]
	order := s.pool[kind]
	it := item{kind: kind, b: s.in.pools[kind][order[s.next[kind]%len(order)]]}
	s.next[kind]++
	return it
}

// client sends requests to one front server over at most conns
// connections, and keeps the first answer to every body: every later
// answer to the same body must be byte-identical.
type client struct {
	hc   *http.Client
	base string
	in   *inputs

	mu       sync.Mutex
	first    map[int][]byte   // body id -> first OK answer
	sums     map[int][32]byte // body id -> hash of the first OK answer
	diverged []int            // body ids whose answers differed
}

func newClient(base string, in *inputs, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		}},
		base:  base,
		in:    in,
		first: map[int][]byte{},
		sums:  map[int][32]byte{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one body and reads the whole response.
func (c *client) post(path string, data []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// do sends it, timing from due (the zero time means "from the send").
func (c *client) do(it item, due time.Time) outcome {
	o := outcome{kind: it.kind}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	var resp []byte
	o.status, resp, o.err = c.post(c.in.kinds[it.kind].path, it.b.data)
	o.done = time.Now()
	o.lat = o.done.Sub(due)
	o.lag = sent.Sub(due)
	if o.ok() {
		sum := sha256.Sum256(resp)
		c.mu.Lock()
		if prev, seen := c.sums[it.b.id]; !seen {
			c.sums[it.b.id] = sum
			c.first[it.b.id] = resp
		} else if prev != sum {
			c.diverged = append(c.diverged, it.b.id)
		}
		c.mu.Unlock()
	}
	return o
}

// openLoop sends sched at its due times from conns workers. A request is
// timed from when it was due, so a stall is charged to every request it
// delays; workers never skip a request, they fall behind and catch up.
func (c *client) openLoop(sched []item, conns int) []outcome {
	out := make([]outcome, len(sched))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[i] = c.do(sched[i], due)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients back to back, each sending its next
// request when the previous one answers, until dur has passed. It returns
// every outcome and the capacity: OK answers per second in each of
// `windows` equal slices of the phase, the median slice's rate, so that a
// burst of interference from outside the benchmark does not set it.
func (c *client) closedLoop(src *source, conns int, dur time.Duration) ([]outcome, float64) {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := c.do(src.deal(), time.Time{})
				mu.Lock()
				all = append(all, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	width := dur / windows
	counts := make([]float64, windows)
	for i := range all {
		if w := int(all[i].done.Sub(start) / width); all[i].ok() && w < windows {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] /= width.Seconds()
	}
	fmt.Printf("  capacity by window: %.1f\n", counts)
	sort.Float64s(counts)
	return all, median(counts)
}

const windows = 5

// schedule lays n requests from src out at a fixed rate.
func schedule(src *source, rate float64, dur time.Duration) []item {
	n := int(rate * dur.Seconds())
	sched := make([]item, n)
	for i := range sched {
		sched[i] = src.deal()
		sched[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return sched
}

// quantile returns the nearest-rank p-quantile of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// classLatencies collects OK open-loop latencies (ms) per class, sorted.
func classLatencies(in *inputs, outs []outcome) map[string][]float64 {
	by := map[string][]float64{}
	for i := range outs {
		o := &outs[i]
		if o.ok() {
			cl := in.kinds[o.kind].class
			by[cl] = append(by[cl], ms(o.lat))
			by[classAll] = append(by[classAll], ms(o.lat))
		}
	}
	for _, xs := range by {
		sort.Float64s(xs)
	}
	return by
}

func decodeJSON(resp *http.Response, dst any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
