package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/lake"
	"repro/internal/serve"
	"repro/internal/synth"
)

// Quality floors against the generator's ground truth. A run whose mean
// falls below a floor fails.
var floors = map[string]float64{
	"santos_recall": 0.9,
	"lsh_recall":    0.7,
	"fd_complete":   1,
	"er_f1":         0.15,
}

// checkResult is what the output checks found.
type checkResult struct {
	err     error
	digest  string
	quality map[string]float64
	checked int
}

func printChecks(chk *checkResult) {
	names := make([]string, 0, len(chk.quality))
	for n := range chk.quality {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-22s %12.4f (floor %.2f)\n", "quality."+n, chk.quality[n], floors[n])
	}
	fmt.Printf("answers_checked %d\nanswer_digest %s\n", chk.checked, chk.digest)
}

// checkRun verifies every answer of the run: answers to one body are
// byte-identical and equal the in-process core.Pipeline answer, and
// discovery recall and FD/ER quality meet their floors. On cluster the
// in-process answer comes from one unsharded lake over the same tables and
// KB, so the check covers the coordinator's scatter, merge and remote
// resolve, not only the front server's codec.
func checkRun(ctx context.Context, in *inputs, dep *deployment, c *client) *checkResult {
	chk := &checkResult{quality: map[string]float64{}}
	var errs []error
	if len(c.diverged) > 0 {
		errs = append(errs, fmt.Errorf("%d answers differ from an earlier answer to the same body (first: body %d)", len(c.diverged), c.diverged[0]))
	}
	ref := dep.pipe
	if dep.coord != nil {
		l, err := lake.New(dep.tables, lake.Options{Knowledge: dep.know})
		if err != nil {
			chk.err = fmt.Errorf("reference lake: %w", err)
			return chk
		}
		ref = core.FromLake(l)
	}
	digest := sha256.New()
	q := newQuality()
	// Every body's in-process answer is computed, so the digest and the
	// quality means cover the same bodies whatever subset the run happened
	// to send.
	for _, b := range in.bodies {
		want, err := reference(ctx, ref, in.kinds[b.kind].path, b.data)
		if err != nil {
			errs = append(errs, fmt.Errorf("reference for body %d: %w", b.id, err))
			continue
		}
		if got, answered := c.first[b.id]; answered {
			chk.checked++
			if !bytes.Equal(got, want) {
				errs = append(errs, fmt.Errorf("body %d (%s): HTTP answer differs from the in-process answer", b.id, in.kinds[b.kind].name))
				continue
			}
		}
		digest.Write(want)
		if err := q.score(in, b, want); err != nil {
			errs = append(errs, fmt.Errorf("body %d: %w", b.id, err))
		}
	}
	for name, xs := range q.sums {
		mean := xs[0] / xs[1]
		chk.quality[name] = mean
		if mean < floors[name] {
			errs = append(errs, fmt.Errorf("quality %s = %.4f below floor %.2f", name, mean, floors[name]))
		}
	}
	chk.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	chk.err = errors.Join(errs...)
	return chk
}

// quality accumulates per-check means against the ground truth.
type quality struct {
	sums map[string][2]float64
}

func newQuality() *quality { return &quality{sums: map[string][2]float64{}} }

func (q *quality) add(name string, v float64) {
	s := q.sums[name]
	q.sums[name] = [2]float64{s[0] + v, s[1] + 1}
}

var familyRE = regexp.MustCompile(`family(\d+)`)

// familyOf reads a table's family from its name: partitions
// (family3_part1) and joinable companions (family3_join0) carry it; noise
// tables have none.
func familyOf(name string) int {
	m := familyRE.FindStringSubmatch(name)
	if m == nil {
		return -1
	}
	f, _ := strconv.Atoi(m[1])
	return f
}

// recallAt scores one ranked list: the share of the top k that is
// relevant, over the most that could be.
func recallAt(results []serve.DiscoverResult, relevant func(string) bool, possible, k int) float64 {
	if possible > k {
		possible = k
	}
	if possible == 0 {
		return 1
	}
	hits := 0
	for i, r := range results {
		if i == k {
			break
		}
		if relevant(r.Table) {
			hits++
		}
	}
	return min(float64(hits)/float64(possible), 1)
}

// score checks one answer against the generator's ground truth.
func (q *quality) score(in *inputs, b *body, answer []byte) error {
	switch in.kinds[b.kind].path {
	case "/v1/discover":
		var resp serve.DiscoverResponse
		if err := json.Unmarshal(answer, &resp); err != nil {
			return err
		}
		q.discovery(in, b, resp, discoverK)
	case "/v1/pipeline":
		var resp serve.PipelineResponse
		if err := json.Unmarshal(answer, &resp); err != nil {
			return err
		}
		q.discovery(in, b, resp.Discovery, pipelineK)
	case "/v1/integrate":
		if b.frags == nil {
			return nil
		}
		var resp serve.IntegrateResponse
		if err := json.Unmarshal(answer, &resp); err != nil {
			return err
		}
		t, err := resp.Table.DecodeTable()
		if err != nil {
			return err
		}
		q.add("fd_complete", float64(synth.CompleteTuples(t))/float64(b.frags.Options.Entities))
	case "/v1/resolve":
		var req serve.ResolveRequest
		var resp serve.ResolveResponse
		if err := json.Unmarshal(b.data, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(answer, &resp); err != nil {
			return err
		}
		t, err := req.Table.DecodeTable()
		if err != nil {
			return err
		}
		_, _, f1 := er.PairwiseQuality(resp.Clusters, b.frags.LabelRows(t))
		q.add("er_f1", f1)
	}
	return nil
}

// discovery scores the union (SANTOS) and join (LSH Ensemble) rankings of
// a query derived from lake table b.src: unionable means a partition of
// the same family, joinable any table of the family.
func (q *quality) discovery(in *inputs, b *body, resp serve.DiscoverResponse, k int) {
	f := familyOf(b.src)
	self := ""
	if !b.foreign {
		self = b.src
	}
	unionable := len(in.truth.UnionableWith[b.src])
	joinable := unionable + len(in.truth.JoinableWith[b.src])
	if b.foreign {
		unionable++
		joinable++
	}
	if rs, ok := resp.PerMethod["santos-union"]; ok {
		q.add("santos_recall", recallAt(rs, func(n string) bool {
			return n != self && familyOf(n) == f && !strings.Contains(n, "_join")
		}, unionable, k))
	}
	if rs, ok := resp.PerMethod["lsh-join"]; ok {
		q.add("lsh_recall", recallAt(rs, func(n string) bool { return n != self && familyOf(n) == f }, joinable, k))
	}
}
