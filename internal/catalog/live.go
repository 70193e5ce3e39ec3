// Live-relation registry: the catalog half of the S36 snapshot protocol.
// A live relation is a shared core.LiveEvaluator registered under a name —
// writers append through LiveIngest while SELECT ... LIVE readers acquire
// consistent epochs through AcquireLiveSnapshot, with a refcount tracking
// outstanding leases. Live relations are in-memory only: they are not
// persisted to catalog.json and do not survive a restart.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tempagg/internal/core"
	"tempagg/internal/obs"
	"tempagg/internal/query"
	"tempagg/internal/tuple"
)

// liveRelation is one registered live evaluator plus its lease bookkeeping.
type liveRelation struct {
	name string
	ev   *core.LiveEvaluator
	// readers counts outstanding snapshot leases: acquired snapshots whose
	// release has not run yet.
	readers atomic.Int64
	// segments remembers the last published sealed-segment count so the
	// gauge hook can emit seal deltas as a counter.
	segments atomic.Int64
}

// SetLiveMetrics installs the metric set live relations publish into:
// epoch gauges on every ingest, seal and ingest counters, reader leases,
// and snapshot-read counts. Safe to call while ingestion runs; a nil m
// (or never calling this) disables publication.
func (c *Catalog) SetLiveMetrics(m *obs.Metrics) {
	c.liveMetrics.Store(m)
}

// liveM returns the installed metric set; its methods are nil-safe.
func (c *Catalog) liveM() *obs.Metrics { return c.liveMetrics.Load() }

// RegisterLive creates and registers a live relation. The name must not
// collide with a file relation or an existing live relation.
func (c *Catalog) RegisterLive(name string, opts core.LiveOptions) (*core.LiveEvaluator, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: live relation needs a name")
	}
	c.mu.RLock()
	_, isFile := c.entries[name]
	c.mu.RUnlock()
	if isFile {
		return nil, fmt.Errorf("catalog: relation %q already exists as a file relation", name)
	}
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	if _, ok := c.lives[name]; ok {
		return nil, fmt.Errorf("catalog: live relation %q already registered", name)
	}
	lr := &liveRelation{name: name, ev: core.NewLive(opts)}
	lr.ev.SetGaugeHook(func(g core.LiveGauges) {
		m := c.liveM()
		m.LiveEpoch(name, g.Seq, g.Segments, g.Tail)
		if prev := lr.segments.Swap(int64(g.Segments)); int64(g.Segments) > prev {
			m.LiveSealed(name, int64(g.Segments)-prev)
		}
	})
	if c.lives == nil {
		c.lives = map[string]*liveRelation{}
	}
	c.lives[name] = lr
	return lr.ev, nil
}

// EnsureLive returns the named live relation's evaluator, registering it
// with opts on first use — the auto-register path behind the server's
// INGEST command.
func (c *Catalog) EnsureLive(name string, opts core.LiveOptions) (*core.LiveEvaluator, error) {
	c.liveMu.RLock()
	lr, ok := c.lives[name]
	c.liveMu.RUnlock()
	if ok {
		return lr.ev, nil
	}
	ev, err := c.RegisterLive(name, opts)
	if err != nil {
		// Lost a registration race: someone else created it between the
		// read and the write lock. Return theirs.
		c.liveMu.RLock()
		lr, ok = c.lives[name]
		c.liveMu.RUnlock()
		if ok {
			return lr.ev, nil
		}
		return nil, err
	}
	return ev, nil
}

// live resolves a registered live relation.
func (c *Catalog) live(name string) (*liveRelation, error) {
	c.liveMu.RLock()
	defer c.liveMu.RUnlock()
	lr, ok := c.lives[name]
	if !ok {
		return nil, fmt.Errorf("catalog: live relation %q not registered", name)
	}
	return lr, nil
}

// LiveIngest appends tuples to a live relation. Concurrent callers are
// serialized by the evaluator; snapshot readers are never blocked.
func (c *Catalog) LiveIngest(name string, ts []tuple.Tuple) error {
	lr, err := c.live(name)
	if err != nil {
		return err
	}
	if err := lr.ev.AddBatch(ts); err != nil {
		return err
	}
	c.liveM().LiveIngested(name, len(ts))
	return nil
}

// AcquireLiveSnapshot takes a consistent epoch of the named live relation
// and leases it to the caller: the reader-count gauge moves up until the
// returned release runs. Release is idempotent and must be called; reads
// through the snapshot stay valid after release (and after Close), release
// only returns the lease.
func (c *Catalog) AcquireLiveSnapshot(name string) (*core.LiveSnapshot, func(), error) {
	lr, err := c.live(name)
	if err != nil {
		return nil, nil, err
	}
	snap, err := lr.ev.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	lr.readers.Add(1)
	m := c.liveM()
	m.LiveReaders(name, 1)
	m.LiveSnapshotRead(name)
	var once sync.Once
	release := func() {
		once.Do(func() {
			lr.readers.Add(-1)
			c.liveM().LiveReaders(name, -1)
		})
	}
	return snap, release, nil
}

// LiveReaders reports a live relation's outstanding snapshot leases.
func (c *Catalog) LiveReaders(name string) (int64, error) {
	lr, err := c.live(name)
	if err != nil {
		return 0, err
	}
	return lr.readers.Load(), nil
}

// LiveNames lists the registered live relations, sorted.
func (c *Catalog) LiveNames() []string {
	c.liveMu.RLock()
	defer c.liveMu.RUnlock()
	names := make([]string, 0, len(c.lives))
	for n := range c.lives {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropLive closes and unregisters a live relation. Ingest and new
// snapshots fail afterwards; snapshots already held stay readable.
func (c *Catalog) DropLive(name string) error {
	c.liveMu.Lock()
	lr, ok := c.lives[name]
	delete(c.lives, name)
	c.liveMu.Unlock()
	if !ok {
		return fmt.Errorf("catalog: live relation %q not registered", name)
	}
	return lr.ev.Close()
}

// executeLive serves a SELECT ... LIVE query: acquire an epoch, evaluate
// every aggregate of the select list against it, release the lease. LIVE
// reads are not cached: every ingest advances the epoch, so under
// concurrent ingest a cached answer would never be read again.
func (c *Catalog) executeLive(q *query.Query, tr *obs.QueryTrace) (*query.QueryResult, error) {
	snap, release, err := c.AcquireLiveSnapshot(q.Relation)
	if err != nil {
		return nil, err
	}
	defer release()
	return query.ExecuteLive(q, snap, tr)
}
