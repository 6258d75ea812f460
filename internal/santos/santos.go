// Package santos implements relationship-based semantic table union search
// in the style of SANTOS (Khatiwada et al., SIGMOD 2023), the unionable
// discovery method DIALITE exposes. A table is unionable with the query
// when it describes the same *kind* of entities (column semantic types
// agree) related in the same *way* (column-pair relationship semantics
// agree), anchored at a user-chosen intent column.
//
// Semantics come from a knowledge base (see package kb): the curated demo
// KB plays the role SANTOS assigns to YAGO, and a KB synthesized from the
// lake itself covers domains without curated entries. The two are merged by
// the caller (kb.Merge) or used individually.
//
// Annotation runs on the compiled KB (kb.Compile): cell values resolve to
// integer annotation codes through a kb.Annotator — shared lake-wide when
// built through lake.New, so each distinct lake value is canonicalized
// exactly once — and column/pair votes run over dense type and label IDs
// with pooled scratch, never re-walking the type hierarchy or building
// string keys per row pair.
package santos

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/kb"
	"repro/internal/par"
	"repro/internal/table"
)

// edgeIn is the direction bit of a packed edge key: set for edges arriving
// at the column, clear for edges leaving it.
const edgeIn = uint64(1) << 63

// edgeKeyID packs one relationship incident to a column, direction-
// normalized — the far endpoint is identified by its semantic type only
// (column positions are meaningless across lake tables). Layout: bit 63 is
// the direction, bits 62..32 the compiled label ID, bits 31..0 the other
// endpoint's compiled type ID (kb.Compile guards both below 2^31). Distinct
// (direction, label, type) triples always pack to distinct keys — unlike
// the string form "out:<label>:<type>", which could collide on labels
// containing the delimiter — and compiled IDs are deterministic, so keys
// are stable across runs.
func edgeKeyID(in bool, label, otherType uint32) uint64 {
	k := uint64(label)<<32 | uint64(otherType)
	if in {
		k |= edgeIn
	}
	return k
}

// columnSemantics is the annotation of one column of one table. edges is
// the column's incident relationship set as sorted, deduplicated packed
// keys.
type columnSemantics struct {
	col    int
	ann    kb.ColumnAnnotation
	typeID uint32
	edges  []uint64
}

// tableSemantics is the semantic graph of one table.
type tableSemantics struct {
	t    *table.Table
	cols []columnSemantics
}

// Index is a SANTOS index over a data lake: every table's semantic graph,
// precomputed offline as the demo's preprocessing step. The index is
// mutable — Add annotates and appends tables, Remove evicts their semantic
// graphs — but always against the KB snapshot compiled at build time (see
// BuildWithAnnotator). Mutations take the write lock, queries the read
// lock.
type Index struct {
	mu      sync.RWMutex
	ann     *kb.Annotator
	scratch sync.Pool // *kb.Scratch
	tables  []tableSemantics
}

// Build annotates every lake table against the knowledge base through a
// private annotation cache. Lake preprocessing uses BuildWithAnnotator to
// share the lake-wide cache instead.
func Build(lakeTables []*table.Table, knowledge *kb.KB) *Index {
	if knowledge == nil {
		knowledge = kb.New()
	}
	return BuildWithAnnotator(lakeTables, kb.NewAnnotator(knowledge.Compiled(), nil))
}

// BuildWithAnnotator annotates every lake table through the given
// annotation cache (the lake's dict-backed cache, when built through
// lake.New). Tables without any annotated column are indexed but can never
// match. Annotation is per-table pure work over the immutable compiled KB,
// so tables are annotated in parallel; slot-indexed results keep the index
// order — and therefore query results — identical to a sequential build.
//
// The index snapshots the KB as compiled at build time: queries and the
// indexed semantic graphs always share one KB state. Mutating the source
// KB after Build does not affect this index (it never re-annotated the
// indexed tables anyway); rebuild to pick up KB changes.
func BuildWithAnnotator(lakeTables []*table.Table, ann *kb.Annotator) *Index {
	ix := &Index{ann: ann, tables: make([]tableSemantics, len(lakeTables))}
	ix.scratch.New = func() any { return ann.Compiled().NewScratch() }
	par.For(len(lakeTables), func(i int) {
		s := ix.scratch.Get().(*kb.Scratch)
		ix.tables[i] = annotate(lakeTables[i], ann, s)
		ix.scratch.Put(s)
	})
	return ix
}

// NumTables reports how many tables are indexed.
func (ix *Index) NumTables() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.tables)
}

// Add annotates the given tables against the index's build-time KB snapshot
// (through the shared annotation cache, so lake values resolve to cached
// codes) and appends their semantic graphs. Callers are responsible for
// name uniqueness, as with Build. Add is exclusive with queries and other
// mutations.
func (ix *Index) Add(lakeTables []*table.Table) {
	if len(lakeTables) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	added := make([]tableSemantics, len(lakeTables))
	par.For(len(lakeTables), func(i int) {
		s := ix.scratch.Get().(*kb.Scratch)
		added[i] = annotate(lakeTables[i], ix.ann, s)
		ix.scratch.Put(s)
	})
	ix.tables = append(ix.tables, added...)
}

// Remove evicts the semantic graphs of the named tables and reports how
// many were dropped; unknown names are ignored. Remove is exclusive with
// queries and other mutations.
func (ix *Index) Remove(names []string) int {
	if len(names) == 0 {
		return 0
	}
	doomed := make(map[string]bool, len(names))
	for _, n := range names {
		doomed[n] = true
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	kept := make([]tableSemantics, 0, len(ix.tables))
	for _, ts := range ix.tables {
		if !doomed[ts.t.Name] {
			kept = append(kept, ts)
		}
	}
	removed := len(ix.tables) - len(kept)
	ix.tables = kept
	return removed
}

// annotate computes the full semantic graph of a table over annotation
// codes, as the index stores it.
func annotate(t *table.Table, ann *kb.Annotator, s *kb.Scratch) tableSemantics {
	return annotateFor(t, ann, s, -1)
}

// annotateFor computes the semantic graph of a table over annotation
// codes. With intent < 0 it is the whole graph. With intent >= 0 it is
// that column's part, all a query reads: only column pairs touching intent
// are related, and cols holds intent alone (if it is annotated), its
// edges the same as in the whole graph.
func annotateFor(t *table.Table, ann *kb.Annotator, s *kb.Scratch, intent int) tableSemantics {
	ck := ann.Compiled()
	ts := tableSemantics{t: t}
	nc := t.NumCols()
	anns := make([]kb.ColumnAnnotation, nc)
	typeIDs := make([]uint32, nc)
	rowCodes := make([][]uint32, nc)
	for c := 0; c < nc; c++ {
		cc := ann.ColumnCodes(t, c, s)
		if cc.Rows == nil {
			continue // not mostly textual: no entity semantics
		}
		rowCodes[c] = cc.Rows
		anns[c], typeIDs[c] = ck.AnnotateColumnCodes(cc.Distinct, s)
	}
	edgesByCol := make(map[int][]uint64)
	for a := 0; a < nc; a++ {
		if rowCodes[a] == nil || anns[a].Type == "" {
			continue
		}
		for b := a + 1; b < nc; b++ {
			if rowCodes[b] == nil || anns[b].Type == "" || (intent >= 0 && a != intent && b != intent) {
				continue
			}
			pa, labelID := ck.AnnotatePairCodes(rowCodes[a], rowCodes[b], s)
			if pa.Label == "" {
				continue
			}
			// Normalize direction: with Inverse=false the relation runs
			// a -> b; with Inverse=true it runs b -> a.
			from, to := a, b
			if pa.Inverse {
				from, to = b, a
			}
			edgesByCol[from] = append(edgesByCol[from], edgeKeyID(false, labelID, typeIDs[to]))
			edgesByCol[to] = append(edgesByCol[to], edgeKeyID(true, labelID, typeIDs[from]))
		}
	}
	for c := 0; c < nc; c++ {
		if anns[c].Type == "" || (intent >= 0 && c != intent) {
			continue
		}
		ts.cols = append(ts.cols, columnSemantics{
			col:    c,
			ann:    anns[c],
			typeID: typeIDs[c],
			edges:  sortedUnique(edgesByCol[c]),
		})
	}
	return ts
}

// indexedSemantics returns the indexed semantic graph of the table named
// q.Name when q holds the same cells (sameCells), such as a lake table
// decoded from a request body. annotate reads nothing else from a table,
// and a query scope resolves every lake value to the code the index
// annotated it with; the only codes a scope may number differently are
// extended ones, which never vote. So the graph equals annotating q.
func (ix *Index) indexedSemantics(q *table.Table) (tableSemantics, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, ts := range ix.tables {
		if ts.t.Name == q.Name {
			return ts, sameCells(ts.t, q)
		}
	}
	return tableSemantics{}, false
}

// sameCells reports whether a and b have the same number of columns and
// every column is the same in both (table.Table.SameColumn).
func sameCells(a, b *table.Table) bool {
	if a == b {
		return true
	}
	if a.NumCols() != b.NumCols() {
		return false
	}
	for c := range a.NumCols() {
		if !a.SameColumn(b, c) {
			return false
		}
	}
	return true
}

// sortedUnique sorts keys ascending and removes duplicates in place,
// turning an edge list into the canonical set form edgeJaccard merges.
func sortedUnique(keys []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// supertypeDecay is the type-match score multiplier per hierarchy hop when
// the query and candidate column types differ but one subsumes the other.
const supertypeDecay = 0.5

// typeMatchScoreID scores how well candidate type ct matches query type qt
// over compiled type IDs. It equals the string-hierarchy reference
// typeMatchScore (crosscheck_test.go): type IDs are unique per type name,
// and compiled ancestor chains replicate the string walk.
func typeMatchScoreID(ck *kb.Compiled, qt, ct uint32) float64 {
	if qt == ct {
		return 1
	}
	w := 1.0
	for _, anc := range ck.AncestorIDs(ct) {
		w *= supertypeDecay
		if anc == qt {
			return w
		}
	}
	w = 1.0
	for _, anc := range ck.AncestorIDs(qt) {
		w *= supertypeDecay
		if anc == ct {
			return w
		}
	}
	return 0
}

// edgeJaccard computes the Jaccard similarity of two edge-key sets, both
// already in canonical sorted-unique form, with an allocation-free linear
// merge.
func edgeJaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Result is one ranked unionable table.
type Result struct {
	Table *table.Table
	Score float64
	// MatchedColumn is the candidate column matched to the intent column.
	MatchedColumn int
}

// Query ranks lake tables by semantic unionability with the query table,
// anchored at intentCol (the demo's "intent column"). The score of a
// candidate column c against the query's intent column q is
//
//	conf(q)·conf(c)·typeMatch(q,c) · (1 + relationshipJaccard(q,c))
//
// and a table scores the maximum over its columns. Tables scoring zero
// (no type-compatible column) are omitted. k<=0 returns all matches.
//
// The query table is annotated through a transient scope of the index's
// shared annotation cache: lake tables resolve entirely from cached codes,
// while foreign query values are canonicalized per query and reclaimed, so
// query traffic never grows the shared cache. A query holding the same
// cells as the indexed table of its name skips annotation and reuses that
// table's semantic graph.
func (ix *Index) Query(q *table.Table, intentCol int, k int) ([]Result, error) {
	return ix.QueryCtx(context.Background(), q, intentCol, k)
}

// scoreCancelStride bounds how many candidate tables are scored between two
// context checks in QueryCtx.
const scoreCancelStride = 64

// QueryCtx is Query with cooperative cancellation: the candidate scoring
// scan checks ctx every scoreCancelStride tables and returns
// (nil, ctx.Err()) once the context is cancelled. Uncancelled results are
// byte-identical to Query.
func (ix *Index) QueryCtx(ctx context.Context, q *table.Table, intentCol int, k int) ([]Result, error) {
	if intentCol < 0 || intentCol >= q.NumCols() {
		return nil, fmt.Errorf("santos: intent column %d out of range for table %q with %d columns", intentCol, q.Name, q.NumCols())
	}
	// Query values resolve through a per-query scope: lake values hit the
	// shared bounded cache, foreign query strings are reclaimed with the
	// scope instead of accumulating in the lake-wide annotator. A query that
	// is an indexed table, cell for cell, reuses that table's semantic graph
	// instead (see indexedSemantics).
	qs, ok := ix.indexedSemantics(q)
	if !ok {
		s := ix.scratch.Get().(*kb.Scratch)
		qs = annotateFor(q, ix.ann.QueryScope(), s, intentCol)
		ix.scratch.Put(s)
	}
	var qcs *columnSemantics
	for i := range qs.cols {
		if qs.cols[i].col == intentCol {
			qcs = &qs.cols[i]
		}
	}
	if qcs == nil {
		return nil, fmt.Errorf("santos: intent column %d of table %q has no semantic annotation (textual KB-covered column required)", intentCol, q.Name)
	}
	ck := ix.ann.Compiled()
	done := ctx.Done()
	var results []Result
	// The candidate scan holds the read lock: mutations swap or append to
	// ix.tables, and scoring reads only immutable per-table graphs.
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i := range ix.tables {
		if done != nil && i%scoreCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		cand := &ix.tables[i]
		if cand.t.Name == q.Name {
			continue // never return the query itself
		}
		best := 0.0
		bestCol := -1
		for j := range cand.cols {
			cc := &cand.cols[j]
			tm := typeMatchScoreID(ck, qcs.typeID, cc.typeID)
			if tm == 0 {
				continue
			}
			score := qcs.ann.Confidence * cc.ann.Confidence * tm * (1 + edgeJaccard(qcs.edges, cc.edges))
			if score > best {
				best = score
				bestCol = cc.col
			}
		}
		if best > 0 {
			results = append(results, Result{Table: cand.t, Score: best, MatchedColumn: bestCol})
		}
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Score != results[b].Score {
			return results[a].Score > results[b].Score
		}
		return results[a].Table.Name < results[b].Table.Name
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}
