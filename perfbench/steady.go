package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady repeats the run n times on seeds o.seed .. o.seed+n-1, each in
// a fresh process, and prints every metric's median, quartiles and
// relative spread ((q3-q1)/median), the figures the bounds in
// BENCHMARK.json are set against.
func runSteady(o options, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	fmt.Println(stamp(o))
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-dir", o.root)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		last := lastLine(out.String())
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("seed %d: %v; output:\n%s", seed, runErr, out.String())
		}
		if runErr != nil || !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d (%v); output:\n%s", seed, res.Correct, res.Failed, runErr, out.String())
		}
		line := []string{fmt.Sprintf("seed %d:", seed)}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		names := sortedKeys(res.Metrics)
		for _, name := range names {
			line = append(line, fmt.Sprintf("%s=%.4f", name, res.Metrics[name].Value))
		}
		fmt.Println(strings.Join(line, " "))
	}
	fmt.Printf("%-36s %12s %12s %12s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, name := range sortedKeys(values) {
		xs := values[name]
		sort.Float64s(xs)
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-36s %12.4f %12.4f %12.4f %8.4f %s\n", name, q2, q1, q3, spread, units[name])
	}
	return nil
}

func lastLine(s string) string {
	var last string
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quartiles of sorted xs by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
