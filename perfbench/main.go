// Command perfbench is the repository's end-to-end benchmark for served
// DIALITE. It generates a seeded lake as CSV files, sets up the server the
// way `dialite serve` would (KB synthesis, lake build, shards), serves it on loopback HTTP, drives one workload's traffic
// through the real endpoints, checks every answer, and prints the metrics.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// replays requests in-process with a span around every call into a layer
// and reports the per-layer metrics. -steady N repeats the run N times on
// consecutive seeds and prints each metric's median, quartiles and spread.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	wSearch   = "search"
	wPipeline = "pipeline"
	wCluster  = "cluster"
)

var workloadNames = []string{wSearch, wPipeline, wCluster}

// workloadConfig fixes each workload's open-loop rate (well under its
// capacity on a 2-CPU machine) and the class whose latency is the headline
// p50_ms (and the printed headline p90).
var workloadConfig = map[string]struct {
	rate     float64
	headline string
}{
	wSearch:   {rate: 40, headline: classDiscover},
	wPipeline: {rate: 40, headline: classPipeline},
	wCluster:  {rate: 75, headline: classDiscover},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // directory for generated inputs, stores and traces
}

func main() {
	var o options
	var trace, steady int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run (open loop then closed loop)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "repeat the run this many times on consecutive seeds and report each metric's spread")
	flag.StringVar(&o.root, "dir", ".bench_build", "directory for generated inputs, stores and traces")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloadConfig[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %v, -seconds >= 1 and -trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if steady > 0 {
		if err := runSteady(o, trace, steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// stamp identifies the machine and build a result was measured on.
func stamp(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("# workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func run(o options) (*result, error) {
	fmt.Println(stamp(o))
	workDir, err := filepath.Abs(filepath.Join(o.root, "work", fmt.Sprintf("%s-%d", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	in, err := generate(o.workload, o.seed, workDir)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	fmt.Printf("input_digest %s\n", in.digest)
	if o.trace {
		return runTraced(o, in, workDir)
	}
	return runMeasured(o, in)
}

// phases splits the measured seconds in half: open loop (latency), then
// closed loop (capacity). Closed-loop throughput swings most from one
// second to the next on a shared machine, so it gets an equal share.
func phases(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = total / 2
	return open, total - open
}

// runMeasured is the untraced run behind the end-to-end metrics.
func runMeasured(o options, in *inputs) (*result, error) {
	// heap_mb is the deployment's own live heap: the live heap after set-up
	// less the benchmark's inputs, which are live before it.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dep, setupS, err := timedSetups(in, setupRepeats)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer dep.stop()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	heapMB := (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / (1 << 20)

	conns := runtime.NumCPU()
	cfg := workloadConfig[o.workload]
	c := newClient(dep.base, in, conns)
	defer c.close()
	src := newSource(in, o.seed)
	openDur, closedDur := phases(o.seconds)
	sched := schedule(src, cfg.rate, openDur)
	outs := c.openLoop(sched, conns)
	capOuts, capacity := c.closedLoop(src, conns, closedDur)

	lat := classLatencies(in, outs)
	failed := 0
	lags := make([]float64, 0, len(outs))
	for i := range outs {
		lags = append(lags, ms(outs[i].lag))
		if !outs[i].ok() {
			failed++
		}
	}
	for i := range capOuts {
		if !capOuts[i].ok() {
			failed++
		}
	}
	sort.Float64s(lags)
	attempted := len(outs) + len(capOuts)

	chk := checkRun(context.Background(), in, dep, c)
	if chk.err == nil && failed > 0 {
		chk.err = fmt.Errorf("%d of %d requests failed", failed, attempted)
	}

	fmt.Printf("%-22s %12.4f %s\n", "setup_s", setupS, "s")
	classes := make([]string, 0, len(lat))
	for cl := range lat {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		xs := lat[cl]
		fmt.Printf("%-22s %12.4f %s (n=%d, %d beyond p90)\n", cl+"_p50_ms", quantile(xs, 0.5), "ms", len(xs), len(xs)-int(0.9*float64(len(xs))))
		fmt.Printf("%-22s %12.4f %s\n", cl+"_p90_ms", quantile(xs, 0.9), "ms")
		printKinds(in, outs, cl)
	}
	fmt.Printf("%-22s %12.4f %s (%d clients, closed loop for %v)\n", "capacity_rps", capacity, "req/s", conns, closedDur)
	fmt.Printf("%-22s %12.4f %s (%d of %d)\n", "failed_ratio", float64(failed)/float64(attempted), "ratio", failed, attempted)
	fmt.Printf("%-22s %12.4f %s\n", "heap_mb", heapMB, "MB")
	fmt.Printf("%-22s %12.4f %s (open loop at %.0f req/s)\n", "bench.gen_lag_p90_ms", quantile(lags, 0.9), "ms", cfg.rate)
	printChecks(chk)

	head := lat[cfg.headline]
	p50, p90 := quantile(head, 0.5), quantile(head, 0.9)
	fmt.Printf("headline (%s): p50_ms %.4f, p90_ms %.4f\n", cfg.headline, p50, p90)
	res := &result{
		Correct:   chk.err == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s": {setupS, "s"},
			"p50_ms":  {p50, "ms"},
			"heap_mb": {heapMB, "MB"},
		},
	}
	if chk.err != nil {
		fmt.Println("CHECK FAILED:", chk.err)
	}
	return res, nil
}

// printKinds shows, for a class that mixes request kinds, each kind's
// share and median, and which kind holds the class's p50 and p90 sample:
// shares are chosen so that both sit well inside one kind.
func printKinds(in *inputs, outs []outcome, class string) {
	type sample struct {
		lat  float64
		kind int
	}
	var xs []sample
	perKind := map[int][]float64{}
	for i := range outs {
		o := &outs[i]
		if o.ok() && (class == classAll || in.kinds[o.kind].class == class) {
			xs = append(xs, sample{ms(o.lat), o.kind})
			perKind[o.kind] = append(perKind[o.kind], ms(o.lat))
		}
	}
	if len(perKind) < 2 {
		return
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].lat < xs[j].lat })
	at := func(p float64) string {
		// The kind at rank p and the share of samples within 15 points of
		// it that are of the same kind.
		i := int(p*float64(len(xs))+0.999999) - 1
		lo, hi := int((p-0.15)*float64(len(xs))), int((p+0.15)*float64(len(xs)))
		if lo < 0 {
			lo = 0
		}
		if hi > len(xs) {
			hi = len(xs)
		}
		same := 0
		for _, x := range xs[lo:hi] {
			if x.kind == xs[i].kind {
				same++
			}
		}
		return fmt.Sprintf("%s (%.0f%% of its +-15 points)", in.kinds[xs[i].kind].name, 100*float64(same)/float64(hi-lo))
	}
	for k, ls := range perKind {
		sort.Float64s(ls)
		fmt.Printf("  kind %-20s n=%-5d p50=%.4f ms\n", in.kinds[k].name, len(ls), quantile(ls, 0.5))
	}
	fmt.Printf("  p50 in %s; p90 in %s\n", at(0.5), at(0.9))
}
