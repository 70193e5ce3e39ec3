package query

import (
	"fmt"
	"os"

	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// ExecuteFile executes a query directly against a relation file. The tuples
// stream from the paged scanner through the executor's single pass — the
// paper's "single segmented scan of the input relation" (§6) — and the
// relation is never materialized. Tuma's baseline makes its two passes as
// two real scans of the file; a plan that needs ordered input scans an
// external merge sort of it.
//
// info may be nil; the file header then supplies the optimizer's metadata
// (cardinality and the sorted flag).
func ExecuteFile(q *Query, path string, info *RelationInfo, sopts relation.ScanOptions) (*QueryResult, error) {
	return ExecuteFileTraced(q, path, info, sopts, nil)
}

// ExecuteFileTraced is ExecuteFile with per-query observability: planning
// and evaluation stages become spans on tr, evaluators publish their §6
// counters through the trace's sink, and the final stats snapshot is
// attached. A nil tr disables all of it — unless the query is an EXPLAIN
// ANALYZE, which records a standalone trace for its report.
func ExecuteFileTraced(q *Query, path string, info *RelationInfo, sopts relation.ScanOptions, tr *obs.QueryTrace) (*QueryResult, error) {
	sc, err := relation.Open(path, sopts)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	meta := RelationInfo{Tuples: sc.Count(), Sorted: sc.Sorted(), KBound: -1}
	if info != nil {
		meta = *info
	}
	if sopts.RandomizePages {
		// A randomized scan destroys physical order, whatever the header
		// or the catalog's declarations say.
		meta.Sorted, meta.KBound = false, -1
	}
	return executeSource(q, fileSource{Scanner: sc, path: path}, meta, tr)
}

// fileSource is a relation file; its sorted view is an external merge sort
// of the file into a temporary copy (§6.3/§7).
type fileSource struct {
	*relation.Scanner
	path string
}

func (fileSource) route() string { return "file" }

func (s fileSource) sorted(*interval.Interval) (core.TupleSource, int, func(), error) {
	tmp, err := os.CreateTemp("", "tempagg-sorted-*.rel")
	if err != nil {
		return nil, 0, nil, fmt.Errorf("query: %w", err)
	}
	tmp.Close()
	var sc *relation.Scanner
	if err = relation.ExternalSort(s.path, tmp.Name(), 0); err == nil {
		sc, err = relation.Open(tmp.Name(), relation.ScanOptions{})
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, 0, nil, err
	}
	return sc, sc.Count(), func() {
		defer os.Remove(tmp.Name())
		defer sc.Close()
	}, nil
}

// filteredSource applies the query's filters to a source, so Tuma's two
// passes are two genuine scans of it. n counts the tuples it delivered.
type filteredSource struct {
	q   *Query
	src core.TupleSource
	n   int
}

func (s *filteredSource) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := s.src.Next()
		if err != nil || !ok {
			return tuple.Tuple{}, false, err
		}
		if s.q.accepts(t) {
			s.n++
			return t, true, nil
		}
	}
}

func (s *filteredSource) Reset() error { return s.src.Reset() }

// RunFile parses and executes a query string against a relation file.
func RunFile(sql, path string, info *RelationInfo, sopts relation.ScanOptions) (*QueryResult, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return ExecuteFile(q, path, info, sopts)
}
