package main

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// adhoc: closed-loop connections issue queries with WHERE (on Salary and
// Name), GROUP BY Name, COUNT(DISTINCT ...) and MIN/MAX, each restricted to
// a narrow window or an instant, over two relations of the same make-up:
// one in random order (planned as a sweep or an aggregation tree) and one
// sorted (a k-ordered tree with k=1). None of these queries can use the
// interval index or the result cache, so every one opens, scans and
// decodes a whole file and runs a core evaluator, while replies stay small.
const (
	adhocTuples = 1 << 18
	// adhocDupPct of each relation exactly repeats another tuple, which
	// COUNT(DISTINCT ...) removes.
	adhocDupPct = 2
	adhocSlice  = 4 * time.Second
)

var adhocRels = [2]string{"adr", "ads"} // random order, sorted

// adhocClasses builds one query of each class over rel from a draw.
var adhocClasses = []func(d draw, rel string) *querySpec{
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggCount}}, window: d.window(),
			where: []cond{{attr: attrSalary, op: ">", num: d.salary()}}}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggSum}}, window: d.window(),
			where: []cond{{attr: attrName, op: "=", str: d.department()}}}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggCount}}, window: d.window(), groupBy: true}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggAvg}}, at: d.instant(), groupBy: true}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggCount, distinct: true}}, window: d.window()}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggMin}}, window: d.window(),
			where: []cond{{attr: attrSalary, op: ">=", num: d.salary()}, {attr: attrName, op: "<>", str: d.department()}}}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggMax}}, at: d.instant(),
			where: []cond{{attr: attrName, op: "<", str: d.department()}}}
	},
	func(d draw, rel string) *querySpec {
		return &querySpec{rel: rel, aggs: []aggItem{{kind: aggMax}, {kind: aggCount, distinct: true}}, at: d.instant(),
			where: []cond{{attr: attrSalary, op: "<", num: d.salary()}}}
	},
}

// draw supplies one query's parameters. What sets a query's cost — window
// length, salary threshold, department — follows the query's index i on
// fixed low-discrepancy schedules, the same for every seed; rng draws
// positions in time.
type draw struct {
	rng *rand.Rand
	i   int
}

// spread is the fractional part of i·step: evenly spread over [0, 1).
func spread(i int, step float64) float64 {
	_, f := math.Modf(float64(i) * step)
	return f
}

func (d draw) window() *[2]int64 {
	n := logUniform(lifespan/1000, lifespan/200, spread(d.i, 0.6180339887))
	start := d.rng.Int63n(lifespan - n)
	return &[2]int64{start, start + n - 1}
}

func (d draw) instant() *int64 {
	t := d.rng.Int63n(lifespan)
	return &t
}

func (d draw) salary() int64 {
	return valueMin + int64(spread(d.i, 0.7548776662)*float64(valueRange))
}

func (d draw) department() string { return departments[d.i%len(departments)] }

type adhoc struct {
	seed    int64
	rels    [2][]tuple.Tuple
	mu      sync.Mutex
	replies []storedLine
}

// storedLine is one query and its whole reply.
type storedLine struct {
	q    *querySpec
	line []byte
}

func newAdhoc(seed int64) workload { return &adhoc{seed: seed} }

func (w *adhoc) prepare(e *env) error {
	for i, name := range adhocRels {
		w.rels[i] = genRelation(rngFor(w.seed, 1+int64(i)),
			relSpec{tuples: adhocTuples, longPct: 40, dupPct: adhocDupPct, sorted: i == 1})
		if err := relation.WriteFile(filepath.Join(e.dir, name+".rel"), relation.FromTuples(name, w.rels[i])); err != nil {
			return err
		}
	}
	return nil
}

func (w *adhoc) warmup(d *daemon) error {
	qs := w.round(rngFor(w.seed, 3), 0)
	_, err := serial(d, qs, func(i int, line []byte) { w.store(qs[i], line) })
	return err
}

func (w *adhoc) store(q *querySpec, line []byte) {
	w.mu.Lock()
	w.replies = append(w.replies, storedLine{q: q, line: bytes.Clone(line)})
	w.mu.Unlock()
}

// round is one connection's n-th round: every class over each relation,
// in a seeded order.
func (w *adhoc) round(rng *rand.Rand, n int) []*querySpec {
	per := len(adhocClasses) * len(adhocRels)
	out := make([]*querySpec, per)
	for i, k := range rng.Perm(per) {
		d := draw{rng: rng, i: n*per + i}
		out[i] = adhocClasses[k%len(adhocClasses)](d, adhocRels[k/len(adhocClasses)])
	}
	return out
}

func (w *adhoc) measure(d *daemon, e *env) (*tally, error) {
	return closedLoop(d, e, adhocSlice, func(id int, c *conn, deadline time.Time, rec *recorder) error {
		rng := rngFor(w.seed, 10+int64(id))
		for round := 0; time.Now().Before(deadline); round++ {
			for _, q := range w.round(rng, round) {
				line, lat, err := c.roundTrip(q.sql())
				if err != nil {
					return err
				}
				rec.selected(lat, line)
				w.store(q, line)
			}
		}
		return nil
	})
}

func (w *adhoc) check() (attempted, failed int) {
	sets := map[string]*tupleSet{}
	for i, name := range adhocRels {
		sets[name] = newTupleSet(w.rels[i])
	}
	errs := checkEach(len(w.replies), func(i int) error {
		r := w.replies[i]
		return checkSelect(r.q, sets[r.q.rel], r.line, rngFor(w.seed, 100+int64(i)))
	})
	return len(w.replies), countFailures(errs, func(i int) string { return w.replies[i].q.sql() })
}

// recorder logs one connection's operations in the timed phase.
type recorder struct {
	start time.Time
	ops   []opRecord
}

// opRecord is one SELECT of the timed phase.
type opRecord struct {
	done, lat time.Duration // done: completion, from the phase's start
	bytes     int
}

func (r *recorder) selected(lat time.Duration, reply []byte) {
	r.ops = append(r.ops, opRecord{done: time.Since(r.start), lat: lat, bytes: len(reply)})
}

// closedLoop runs one driver per connection until each has passed the
// deadline at the end of a round, and cuts the phase into slices of about
// sliceLen, sampling the daemon's CPU time at each cut. Operations that
// finish after the last whole slice are checked but not timed.
func closedLoop(d *daemon, e *env, sliceLen time.Duration, drive func(id int, c *conn, deadline time.Time, rec *recorder) error) (*tally, error) {
	phase := time.Duration(e.seconds) * time.Second
	n := max(1, int(phase/sliceLen))
	span := phase / time.Duration(n)
	conns := make([]*conn, connections())
	for i := range conns {
		c, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	cpu := make([]time.Duration, n+1)
	cpuErr := make([]error, n+1)
	if cpu[0], cpuErr[0] = d.cpuTime(); cpuErr[0] != nil {
		return nil, cpuErr[0]
	}
	start := time.Now()
	deadline := start.Add(phase)
	recs := make([]*recorder, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * span)))
			cpu[i], cpuErr[i] = d.cpuTime()
		}
	}()
	for i, c := range conns {
		recs[i] = &recorder{start: start}
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			errs[i] = drive(i, c, deadline, recs[i])
		}(i, c)
	}
	wg.Wait()
	for _, err := range append(errs, cpuErr...) {
		if err != nil {
			return nil, err
		}
	}
	t := &tally{}
	for i := 0; i < n; i++ {
		t.slices = append(t.slices, &slice{elapsed: span, cpu: cpu[i+1] - cpu[i]})
	}
	for _, r := range recs {
		for _, op := range r.ops {
			if i := int(op.done / span); i < n {
				s := t.slices[i]
				s.latencies = append(s.latencies, ms(op.lat))
				s.replyBytes += int64(op.bytes)
			}
			// Throughput counts each operation in the slices its time
			// overlaps, by the share it spent in each, so a slice's count
			// is not rounded to whole operations.
			for i, from := 0, op.done-op.lat; i < n; i++ {
				lo, hi := max(from, time.Duration(i)*span), min(op.done, time.Duration(i+1)*span)
				if hi > lo && op.lat > 0 {
					t.slices[i].selects += float64(hi-lo) / float64(op.lat)
				}
			}
		}
	}
	rss, err := d.peakRSS()
	t.rss = append(t.rss, float64(rss)/(1<<20))
	return t, err
}
