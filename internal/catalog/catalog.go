// Package catalog manages a directory of relation files as a small
// temporal database: every *.rel file is a relation, and catalog.json
// persists the per-relation declarations the query optimizer consumes —
// most importantly the administrator's "retroactively bounded" declaration
// of §6.3 ("If the relation is declared by the data base administrator to
// be retroactively bounded, then the k-ordered aggregation tree would be
// the algorithm of choice").
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tempagg/internal/core"
	"tempagg/internal/obs"
	"tempagg/internal/query"
	"tempagg/internal/relation"
)

// MetadataFile is the name of the persisted declaration file inside a
// catalog directory.
const MetadataFile = "catalog.json"

// Entry is the persisted metadata for one relation.
type Entry struct {
	// File is the relation file name, relative to the catalog directory.
	File string `json:"file"`
	// KBound declares the relation k-ordered (retroactively bounded) with
	// this bound; -1 means unknown.
	KBound int `json:"kbound"`
	// MemoryBudget bounds evaluation-structure memory in bytes; 0 means
	// unlimited.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// ExpectedConstantIntervals hints the result size for the optimizer;
	// 0 means unknown.
	ExpectedConstantIntervals int `json:"expected_constant_intervals,omitempty"`
	// Comment is free-form documentation.
	Comment string `json:"comment,omitempty"`
}

// Catalog is an open catalog directory. It is safe for concurrent use: the
// server serves every connection from its own goroutine, so declarations
// can arrive while queries resolve names.
type Catalog struct {
	dir string

	mu      sync.RWMutex
	entries map[string]Entry

	// liveMu guards the live-relation registry (live.go); a separate lock
	// so long-running file queries never delay ingest or snapshot reads.
	liveMu      sync.RWMutex
	lives       map[string]*liveRelation
	liveMetrics atomic.Pointer[obs.Metrics]

	// Range-query acceleration (cache.go): the per-relation interval-index
	// cache and the versioned result cache, both opt-in.
	idxMu      sync.Mutex
	indexes    map[string]indexEntry
	rangeIndex atomic.Bool
	results    atomic.Pointer[core.ResultCache]

	// The resident relation images static queries scan (image.go).
	images imageCache
}

// Open loads the catalog at dir: every *.rel file becomes a relation named
// by its base name, overlaid with any declarations from catalog.json.
func Open(dir string) (*Catalog, error) {
	fis, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c := &Catalog{dir: dir, entries: map[string]Entry{}}
	c.images.limit = imageCacheBytes
	for _, fi := range fis {
		if fi.IsDir() || !strings.HasSuffix(fi.Name(), ".rel") {
			continue
		}
		name := strings.TrimSuffix(fi.Name(), ".rel")
		c.entries[name] = Entry{File: fi.Name(), KBound: -1}
	}
	data, err := os.ReadFile(filepath.Join(dir, MetadataFile))
	switch {
	case os.IsNotExist(err):
		return c, nil
	case err != nil:
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var persisted map[string]Entry
	if err := json.Unmarshal(data, &persisted); err != nil {
		return nil, fmt.Errorf("catalog: parse %s: %w", MetadataFile, err)
	}
	for name, e := range persisted {
		if _, ok := c.entries[name]; !ok {
			// A declaration for a missing file is an error the operator
			// should see, not a silent skip.
			return nil, fmt.Errorf("catalog: %s declares %q but %s is missing",
				MetadataFile, name, e.File)
		}
		c.entries[name] = e
	}
	return c, nil
}

// Save persists the declarations to catalog.json.
func (c *Catalog) Save() error {
	c.mu.RLock()
	data, err := json.MarshalIndent(c.entries, "", "  ")
	c.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	path := filepath.Join(c.dir, MetadataFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// Names lists the catalog's relations, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.namesLocked()
}

// namesLocked is Names without locking, for use under either lock mode.
func (c *Catalog) namesLocked() []string {
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Entry returns the declarations for a relation.
func (c *Catalog) Entry(name string) (Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookup(name)
}

// lookup is Entry without locking, for use under either lock mode.
func (c *Catalog) lookup(name string) (Entry, error) {
	e, ok := c.entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("catalog: relation %q not found (have: %s)",
			name, strings.Join(c.namesLocked(), ", "))
	}
	return e, nil
}

// Declare updates a relation's declarations (KBound, MemoryBudget,
// ExpectedConstantIntervals, Comment) in memory; call Save to persist.
func (c *Catalog) Declare(name string, e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, err := c.lookup(name)
	if err != nil {
		return err
	}
	e.File = old.File
	c.entries[name] = e
	return nil
}

// Path returns the relation's file path.
func (c *Catalog) Path(name string) (string, error) {
	e, err := c.Entry(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(c.dir, e.File), nil
}

// Info assembles the optimizer metadata for a relation: cardinality and
// sorted flag from the file header, declarations from the catalog.
func (c *Catalog) Info(name string) (query.RelationInfo, error) {
	e, err := c.Entry(name)
	if err != nil {
		return query.RelationInfo{}, err
	}
	path := filepath.Join(c.dir, e.File)
	sc, err := relation.Open(path, relation.ScanOptions{})
	if err != nil {
		return query.RelationInfo{}, err
	}
	defer sc.Close()
	return query.RelationInfo{
		Tuples:                    sc.Count(),
		Sorted:                    sc.Sorted(),
		KBound:                    e.KBound,
		MemoryBudget:              e.MemoryBudget,
		ExpectedConstantIntervals: e.ExpectedConstantIntervals,
	}, nil
}

// Query parses and executes a query, resolving the FROM clause against the
// catalog and streaming from the relation file where the plan allows.
// EXPLAIN statements return the plan report without touching the file's
// tuples; EXPLAIN ANALYZE executes normally and — even with no observer —
// builds a standalone trace so the report carries the span tree.
func (c *Catalog) Query(sql string, sopts relation.ScanOptions) (*query.QueryResult, error) {
	return c.QueryObserved(sql, sopts, nil)
}

// QueryObserved is Query under observation: the whole query becomes one
// trace on o — parse, plan, execute, and finish spans, the chosen
// algorithm, and the evaluator-counter snapshot — and o's metrics record
// the per-algorithm counters, latency histogram, and slow-query log entry.
// A nil o is equivalent to Query.
func (c *Catalog) QueryObserved(sql string, sopts relation.ScanOptions, o *obs.Observer) (*query.QueryResult, error) {
	tr := o.StartQuery(sql)
	qr, err := c.queryTraced(sql, sopts, tr)
	o.FinishQuery(tr, err)
	return qr, err
}

// queryTraced resolves and executes one query, recording stages on tr.
func (c *Catalog) queryTraced(sql string, sopts relation.ScanOptions, tr *obs.QueryTrace) (*query.QueryResult, error) {
	parseSpan := tr.StartSpan("parse")
	q, err := query.Parse(sql)
	parseSpan.End()
	if err != nil {
		return nil, err
	}
	if q.Live {
		return c.executeLive(q, tr)
	}
	info, err := c.Info(q.Relation)
	if err != nil {
		return nil, err
	}
	path, err := c.Path(q.Relation)
	if err != nil {
		return nil, err
	}
	// Range-query acceleration (cache.go): attach the resident interval
	// index so the planner can price an index-lookup plan, and consult the
	// versioned result cache before evaluating anything. A randomized scan
	// still reads the same tuple set, so both caches remain sound under it.
	version := fileFingerprint(path)
	if c.rangeIndex.Load() && version != "" && query.IndexEligible(q) {
		if idx, ierr := c.indexFor(q.Relation, path, version); ierr == nil {
			info.Index = idx
		}
	}
	execute := func() (*query.QueryResult, error) {
		// The §7 page-randomized scan and a relation too large to hold
		// resident read the file; every other query scans its image.
		if sopts.RandomizePages || version == "" || c.images.fileRoute(q.Relation, version, info.Tuples) {
			return query.ExecuteFileTraced(q, path, &info, sopts, tr)
		}
		return query.ExecuteImageTraced(q, func() (*relation.Image, error) {
			return c.imageFor(q.Relation, path, version)
		}, &info, tr)
	}
	rc := c.results.Load()
	if rc == nil || version == "" || !cacheable(q) {
		return execute()
	}
	if qr, ok := c.serveCached(rc, q, version, tr); ok {
		return qr, nil
	}
	qr, err := execute()
	if err == nil {
		c.storeResults(rc, q, version, qr)
	}
	return qr, err
}
