package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"tempagg/internal/aggregate"
	"tempagg/internal/catalog"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/query"
	"tempagg/internal/relation"
	"tempagg/internal/server"
	"tempagg/internal/tuple"
)

// The traced run splits a workload's time across the repository's layers.
// It sends a fixed slice of the workload's operations serially over one
// connection, so each round trip is one operation alone, and replays the
// same operations in-process against a catalog over the same files, timing
// the calls into each layer's public functions. Spans come from the
// benchmark's own code around those calls; the program is not
// instrumented.

// perLayer lists every per-layer metric. A metric with from set is the
// q-quantile of from's samples; the rest are medians of their own samples
// or values set directly. A workload that never calls a layer function
// reports 0 for it.
var perLayer = []struct {
	name, unit string
	from       string
	q          float64
}{
	{name: "server.rtt_ms", unit: "ms"},
	{name: "server.rtt_p90_ms", unit: "ms", from: "server.rtt_ms", q: 0.9},
	{name: "server.encode_ms", unit: "ms"},
	{name: "server.encode_p90_ms", unit: "ms", from: "server.encode_ms", q: 0.9},
	{name: "server.reply_bytes", unit: "bytes"},
	{name: "server.transfer_ms", unit: "ms"},
	{name: "server.transfer_p90_ms", unit: "ms", from: "server.transfer_ms", q: 0.9},
	{name: "server.ingest_rtt_us", unit: "us"},
	{name: "catalog.query_ms", unit: "ms"},
	{name: "catalog.query_p90_ms", unit: "ms", from: "catalog.query_ms", q: 0.9},
	{name: "catalog.info_us", unit: "us"},
	{name: "catalog.cache_hits", unit: "count"},
	{name: "catalog.cache_misses", unit: "count"},
	{name: "catalog.cache_evictions", unit: "count"},
	{name: "catalog.cache_attempts", unit: "count"},
	{name: "catalog.cache_hit_ratio", unit: "ratio"},
	{name: "catalog.live_ingest_us", unit: "us"},
	{name: "catalog.live_snapshot_us", unit: "us"},
	{name: "query.parse_us", unit: "us"},
	{name: "query.plan_us", unit: "us"},
	{name: "query.execute_ms", unit: "ms"},
	{name: "query.execute_live_ms", unit: "ms"},
	{name: "relation.scan_ms", unit: "ms"},
	{name: "relation.tuples_decoded", unit: "count"},
	{name: "relation.bytes_read", unit: "bytes"},
	{name: "relation.decode_ns_per_tuple", unit: "ns"},
	{name: "core.evaluate_ms", unit: "ms"},
	{name: "core.index_build_ms", unit: "ms"},
	{name: "core.index_lookup_us", unit: "us"},
	{name: "core.live_add_us", unit: "us"},
	{name: "core.live_read_ms", unit: "ms"},
}

// layers collects the traced run's samples, each in its metric's unit.
type layers struct {
	samples map[string][]float64
	values  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, values: map[string]float64{}}
}

// scale converts a duration to a metric's unit.
func scale(name string, d time.Duration) float64 {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return ms(d)
	case strings.HasSuffix(name, "_us"):
		return us(d)
	}
	panic("no time unit in metric name " + name)
}

// time runs fn and records its duration under name.
func (l *layers) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.samples[name] = append(l.samples[name], scale(name, time.Since(start)))
	return err
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layers) metrics() map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayer {
		v, set := l.values[m.name]
		switch {
		case set:
		case m.from != "":
			v = quantileOf(l.samples[m.from], m.q)
		default:
			v = quantileOf(l.samples[m.name], 0.5)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// quantileOf is quantile over plain numbers.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// traceCatalog opens an in-process catalog over the run's files, set up as
// tempaggd sets up its own: range index on, result cache at its default
// capacity.
func traceCatalog(e *env) (*catalog.Catalog, error) {
	cat, err := catalog.Open(e.dir)
	if err != nil {
		return nil, err
	}
	cat.EnableRangeIndex()
	cat.EnableResultCache(core.DefaultResultCacheCapacity)
	return cat, nil
}

// replaySelect replays one SELECT in-process: the catalog call and the
// server's encoding of its result, paired with the wire round trip to
// leave the transfer time, then parsing and planning alone.
func (l *layers) replaySelect(cat *catalog.Catalog, op tracedOp) (*query.Query, error) {
	sql := op.q.sql()
	var qr *query.QueryResult
	if err := l.time("catalog.query_ms", func() (err error) {
		qr, err = cat.Query(sql, relation.ScanOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	var reply []byte
	start := time.Now()
	reply, err := json.Marshal(server.Response{OK: true, Result: qr})
	encode := time.Since(start)
	if err != nil {
		return nil, err
	}
	l.add("server.encode_ms", ms(encode))
	l.add("server.reply_bytes", float64(len(reply)+1))
	l.add("server.rtt_ms", ms(op.rtt))
	n := len(l.samples["catalog.query_ms"])
	l.add("server.transfer_ms", ms(op.rtt-encode)-l.samples["catalog.query_ms"][n-1])
	var pq *query.Query
	err = l.time("query.parse_us", func() (err error) {
		pq, err = query.Parse(sql)
		return err
	})
	return pq, err
}

// replayFile times the layers under a file query: catalog metadata,
// planning, the uncached executor, a full scan of the relation, and the
// planned evaluator over the query's filtered tuples. deep selects the
// costly calls.
func (l *layers) replayFile(cat *catalog.Catalog, pq *query.Query, op tracedOp, rel []tuple.Tuple, deep bool) error {
	var info query.RelationInfo
	if err := l.time("catalog.info_us", func() (err error) {
		info, err = cat.Info(op.q.rel)
		return err
	}); err != nil {
		return err
	}
	var plan query.Plan
	if err := l.time("query.plan_us", func() (err error) {
		plan, err = query.PlanQuery(pq, info)
		return err
	}); err != nil {
		return err
	}
	if !deep {
		return nil
	}
	path, err := cat.Path(op.q.rel)
	if err != nil {
		return err
	}
	if err := l.time("query.execute_ms", func() error {
		_, err := query.ExecuteFile(pq, path, &info, relation.ScanOptions{})
		return err
	}); err != nil {
		return err
	}
	if err := l.scan(path); err != nil {
		return err
	}
	if op.q.at != nil || plan.Tuma || plan.Partitioned || plan.UseIndex {
		// The executor answers these without the planned evaluator.
		return nil
	}
	var filtered []tuple.Tuple
	for _, t := range rel {
		if (op.q.window == nil || (t.Valid.End >= op.q.window[0] && t.Valid.Start <= op.q.window[1])) &&
			op.q.passes(t.Name, t.Value) {
			filtered = append(filtered, t)
		}
	}
	if plan.SortFirst {
		slices.SortStableFunc(filtered, func(a, b tuple.Tuple) int {
			if a.Less(b) {
				return -1
			}
			if b.Less(a) {
				return 1
			}
			return 0
		})
	}
	return l.time("core.evaluate_ms", func() error {
		_, _, err := core.Run(plan.Spec, aggregate.For(pq.Aggs[0].Kind), filtered)
		return err
	})
}

// scan reads a relation file to its end, as every file query does.
func (l *layers) scan(path string) error {
	read0, err := readChars()
	if err != nil {
		return err
	}
	start := time.Now()
	sc, err := relation.Open(path, relation.ScanOptions{})
	if err != nil {
		return err
	}
	n := 0
	for {
		_, ok, err := sc.Next()
		if err != nil || !ok {
			if cerr := sc.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			break
		}
		n++
	}
	elapsed := time.Since(start)
	read1, err := readChars()
	if err != nil {
		return err
	}
	l.add("relation.scan_ms", ms(elapsed))
	l.add("relation.tuples_decoded", float64(n))
	l.add("relation.bytes_read", float64(read1-read0))
	l.add("relation.decode_ns_per_tuple", float64(elapsed.Nanoseconds())/float64(n))
	return nil
}

// readChars is the bytes this process has read through system calls
// (rchar in /proc/self/io).
func readChars() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "rchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no rchar in /proc/self/io")
}

// cacheStats records the result cache's counters over the replay.
func (l *layers) cacheStats(before, after core.CacheStats) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	l.values["catalog.cache_hits"] = hits
	l.values["catalog.cache_misses"] = misses
	l.values["catalog.cache_evictions"] = float64(after.Evictions - before.Evictions)
	l.values["catalog.cache_attempts"] = hits + misses
	if hits+misses > 0 {
		l.values["catalog.cache_hit_ratio"] = hits / (hits + misses)
	}
}

// dashTraceRounds of the first connection's stream make the traced slice;
// every dashTraceDeep-th query also runs the costly layer calls.
const (
	dashTraceRounds = 12
	dashTraceDeep   = 16
)

func (w *dashboard) trace(d *daemon, e *env) (map[string]metric, error) {
	zipf := newDashStream(w.seed, 0)
	var keys []int
	var qs []*querySpec
	for i := 0; i < dashTraceRounds*dashRound; i++ {
		k := zipf()
		keys = append(keys, k)
		qs = append(qs, w.panels[k])
	}
	ops, err := serial(d, qs, func(i int, line []byte) { w.stores[0].record(keys[i], line) })
	if err != nil {
		return nil, err
	}
	cat, err := traceCatalog(e)
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	// Warm the in-process catalog as the daemon was warmed.
	for _, sql := range w.sqls[dashKeys:] {
		if _, err := cat.Query(sql, relation.ScanOptions{}); err != nil {
			return nil, err
		}
	}
	l := newLayers()
	var idx *core.IntervalIndex
	if err := l.time("core.index_build_ms", func() (err error) {
		idx, err = core.NewIntervalIndex(w.rel)
		return err
	}); err != nil {
		return nil, err
	}
	defer idx.Close()
	before := cat.ResultCacheStats()
	for i, op := range ops {
		pq, err := l.replaySelect(cat, op)
		if err != nil {
			return nil, err
		}
		if err := l.replayFile(cat, pq, op, w.rel, i%dashTraceDeep == 0); err != nil {
			return nil, err
		}
		lo, hi := op.q.rangeOf()
		window, err := interval.New(lo, hi)
		if err != nil {
			return nil, err
		}
		if err := l.time("core.index_lookup_us", func() error {
			_, err := idx.Range(aggregate.For(pq.Aggs[0].Kind), window)
			return err
		}); err != nil {
			return nil, err
		}
	}
	l.cacheStats(before, cat.ResultCacheStats())
	return l.metrics(), nil
}

// adhocTraceRounds of the first connection's stream make the traced slice.
const adhocTraceRounds = 2

func (w *adhoc) trace(d *daemon, e *env) (map[string]metric, error) {
	rng := rngFor(w.seed, 10)
	var qs []*querySpec
	for i := 0; i < adhocTraceRounds; i++ {
		qs = append(qs, w.round(rng, i)...)
	}
	ops, err := serial(d, qs, func(i int, line []byte) { w.store(qs[i], line) })
	if err != nil {
		return nil, err
	}
	cat, err := traceCatalog(e)
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	l := newLayers()
	before := cat.ResultCacheStats()
	for _, op := range ops {
		pq, err := l.replaySelect(cat, op)
		if err != nil {
			return nil, err
		}
		rel := w.rels[0]
		if op.q.rel == adhocRels[1] {
			rel = w.rels[1]
		}
		if err := l.replayFile(cat, pq, op, rel, true); err != nil {
			return nil, err
		}
	}
	l.cacheStats(before, cat.ResultCacheStats())
	return l.metrics(), nil
}

func (w *feed) trace(d *daemon, e *env) (map[string]metric, error) {
	r := w.newRound("feedtrace", 10, feedTuples)
	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	l := newLayers()
	// Over the wire: the round serially, each read taken once its share
	// of the feed is acknowledged and before the next tuple is sent.
	r.reads = make([]feedRead, len(r.tuples)/feedStep+1)
	var rtts []time.Duration
	for i, line := range r.ingests {
		ack, rtt, err := c.roundTrip(line)
		if err != nil {
			return nil, err
		}
		w.acks[string(ack)]++
		l.add("server.ingest_rtt_us", us(rtt))
		if (i+1)%feedStep == 0 {
			k := (i + 1) / feedStep
			q := r.readSpec(k)
			reply, rtt, err := c.roundTrip(q.sql())
			if err != nil {
				return nil, err
			}
			r.reads[k] = feedRead{q: q, acked: i + 1, sent: i + 1, line: append([]byte(nil), reply...)}
			rtts = append(rtts, rtt)
		}
	}
	// In-process: the catalog's live relation beside a bare evaluator.
	cat, err := traceCatalog(e)
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	if _, err := cat.EnsureLive(r.name, core.LiveOptions{}); err != nil {
		return nil, err
	}
	ev := core.NewLive(core.LiveOptions{})
	defer ev.Close()
	before := cat.ResultCacheStats()
	for i, t := range r.tuples {
		batch := []tuple.Tuple{t}
		if err := l.time("catalog.live_ingest_us", func() error { return cat.LiveIngest(r.name, batch) }); err != nil {
			return nil, err
		}
		if err := l.time("core.live_add_us", func() error { return ev.AddBatch(batch) }); err != nil {
			return nil, err
		}
		if (i+1)%feedStep != 0 {
			continue
		}
		k := (i + 1) / feedStep
		q := r.reads[k].q
		pq, err := l.replaySelect(cat, tracedOp{q: q, rtt: rtts[k-1]})
		if err != nil {
			return nil, err
		}
		if err := l.replayLive(cat, ev, pq, q); err != nil {
			return nil, err
		}
	}
	l.cacheStats(before, cat.ResultCacheStats())
	w.checkRound(r)
	return l.metrics(), nil
}

// replayLive times the layers under a LIVE read: taking the snapshot, the
// live executor, and the bare evaluator's read at the same epoch.
func (l *layers) replayLive(cat *catalog.Catalog, ev *core.LiveEvaluator, pq *query.Query, q *querySpec) error {
	var snap *core.LiveSnapshot
	var release func()
	if err := l.time("catalog.live_snapshot_us", func() (err error) {
		snap, release, err = cat.AcquireLiveSnapshot(q.rel)
		return err
	}); err != nil {
		return err
	}
	defer release()
	if err := l.time("query.execute_live_ms", func() error {
		_, err := query.ExecuteLive(pq, snap, nil)
		return err
	}); err != nil {
		return err
	}
	bare, err := ev.Snapshot()
	if err != nil {
		return err
	}
	f := aggregate.For(pq.Aggs[1].Kind)
	return l.time("core.live_read_ms", func() error {
		if q.window == nil && q.at == nil {
			_, err := bare.Result(f)
			return err
		}
		lo, hi := q.rangeOf()
		window, err := interval.New(lo, hi)
		if err != nil {
			return err
		}
		_, err = bare.RangeIndexed(f, window)
		return err
	})
}
