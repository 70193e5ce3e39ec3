package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// dashboard: closed-loop connections issue unfiltered panels — VALID
// OVERLAPS windows of 0.1–1% of the lifespan and AT points, over all five
// aggregates — drawn from a Zipf-skewed set of panel keys larger than the
// daemon's 256-entry result cache, over one 256K-tuple relation in random
// order with 40% long-lived tuples. This is the traffic of the interval
// index and the result cache: no file is scanned after warm-up and the
// replies are small.
const (
	dashTuples  = 1 << 18
	dashKeys    = 640
	dashZipfS   = 1.1
	dashRound   = 32 // queries per connection per round
	dashSlice   = 2 * time.Second
	dashRelName = "dash"
)

type dashboard struct {
	seed   int64
	rel    []tuple.Tuple
	panels []*querySpec // dashKeys skewed keys, then the warm-up panels
	sqls   []string
	stores []*replyStore // one per connection; the warm-up uses the first
}

func newDashboard(seed int64) workload { return &dashboard{seed: seed} }

func (w *dashboard) prepare(e *env) error {
	w.rel = genRelation(rngFor(w.seed, 1), relSpec{tuples: dashTuples, longPct: 40})
	rng := rngFor(w.seed, 2)
	// Window length and aggregate follow the key's rank on fixed
	// schedules, so the mix the skew selects is the same for every seed;
	// only positions are drawn.
	for r := 0; r < dashKeys; r++ {
		q := &querySpec{rel: dashRelName, aggs: []aggItem{{kind: aggKind(r % 5)}}}
		if r%4 == 3 {
			at := rng.Int63n(lifespan)
			q.at = &at
		} else {
			n := logUniform(lifespan/1000, lifespan/100, spread(r, 0.6180339887))
			start := rng.Int63n(lifespan - n)
			q.window = &[2]int64{start, start + n - 1}
		}
		w.panels = append(w.panels, q)
	}
	for k := aggCount; k <= aggMax; k++ {
		start := rng.Int63n(lifespan - 5000)
		at := rng.Int63n(lifespan)
		w.panels = append(w.panels,
			&querySpec{rel: dashRelName, aggs: []aggItem{{kind: k}}, window: &[2]int64{start, start + 4999}},
			&querySpec{rel: dashRelName, aggs: []aggItem{{kind: k}}, at: &at})
	}
	for _, q := range w.panels {
		w.sqls = append(w.sqls, q.sql())
	}
	for i := 0; i < connections(); i++ {
		w.stores = append(w.stores, newReplyStore(len(w.panels)))
	}
	return relation.WriteFile(filepath.Join(e.dir, dashRelName+".rel"), relation.FromTuples(dashRelName, w.rel))
}

func (w *dashboard) warmup(d *daemon) error {
	_, err := serial(d, w.panels[dashKeys:], func(i int, line []byte) { w.stores[0].record(dashKeys+i, line) })
	return err
}

func (w *dashboard) measure(d *daemon, e *env) (*tally, error) {
	return closedLoop(d, e, dashSlice, func(id int, c *conn, deadline time.Time, rec *recorder) error {
		next := newDashStream(w.seed, id)
		for time.Now().Before(deadline) {
			for i := 0; i < dashRound; i++ {
				k := next()
				line, lat, err := c.roundTrip(w.sqls[k])
				if err != nil {
					return err
				}
				rec.selected(lat, line)
				w.stores[id].record(k, line)
			}
		}
		return nil
	})
}

// newDashStream returns connection id's skewed stream of panel keys.
func newDashStream(seed int64, id int) func() int {
	zipf := rand.NewZipf(rngFor(seed, 10+int64(id)), dashZipfS, 1, dashKeys-1)
	return func() int { return int(zipf.Uint64()) }
}

func (w *dashboard) check() (attempted, failed int) {
	set := newTupleSet(w.rel)
	// The stores' distinct rows parts, merged: part[s][p][v] is the index
	// in parts of store s's v-th rows part for panel p.
	type rowsPart struct {
		panel int
		tail  []byte
	}
	var parts []rowsPart
	byPanel := make([][]int, len(w.panels))
	part := make([][][]int, len(w.stores))
	heads := map[string]error{}
	for si, st := range w.stores {
		part[si] = make([][]int, len(w.panels))
		for p, tails := range st.tails {
			for _, tail := range tails {
				id := -1
				for _, j := range byPanel[p] {
					if bytes.Equal(parts[j].tail, tail) {
						id = j
						break
					}
				}
				if id < 0 {
					id = len(parts)
					parts = append(parts, rowsPart{panel: p, tail: tail})
					byPanel[p] = append(byPanel[p], id)
				}
				part[si][p] = append(part[si][p], id)
			}
		}
		for _, h := range st.headList {
			if _, ok := heads[h]; !ok {
				heads[h] = checkHead(h)
			}
		}
	}
	partErrs := checkEach(len(parts), func(i int) error {
		return checkTail(w.panels[parts[i].panel], set, parts[i].tail, rngFor(w.seed, 100+int64(i)))
	})
	var errs []error
	var what []int
	for si, st := range w.stores {
		for _, op := range st.ops {
			err := heads[st.headList[op.head]]
			if err == nil && op.tail < 0 {
				err = errors.New("reply has no rows")
			}
			if err == nil {
				err = partErrs[part[si][op.panel][op.tail]]
			}
			errs = append(errs, err)
			what = append(what, op.panel)
		}
	}
	return len(errs), countFailures(errs, func(i int) string { return w.sqls[what[i]] })
}

// replyStore keeps a connection's replies without holding each one:
// replies to the same panel repeat, so it keeps each distinct rows part
// ("groups":...) once per panel and each distinct envelope head (query
// echo, plan) once. Every distinct part is checked once, and a reply is
// verified when both its parts are.
type replyStore struct {
	heads    map[string]int
	headList []string
	tails    [][][]byte // per panel, the distinct rows parts
	ops      []storedReply
}

type storedReply struct {
	panel, head, tail int // tail -1: the reply had no rows part
}

func newReplyStore(panels int) *replyStore {
	return &replyStore{heads: map[string]int{}, tails: make([][][]byte, panels)}
}

var groupsField = []byte(`,"groups":`)

func (s *replyStore) record(panel int, line []byte) {
	line = bytes.TrimRight(line, "\n")
	head, tail := line, []byte(nil)
	if i := bytes.Index(line, groupsField); i >= 0 {
		head, tail = line[:i], line[i+1:]
	}
	h, ok := s.heads[string(head)]
	if !ok {
		h = len(s.headList)
		s.heads[string(head)] = h
		s.headList = append(s.headList, string(head))
	}
	op := storedReply{panel: panel, head: h, tail: -1}
	if tail != nil {
		for i, seen := range s.tails[panel] {
			if bytes.Equal(seen, tail) {
				op.tail = i
				break
			}
		}
		if op.tail < 0 {
			op.tail = len(s.tails[panel])
			s.tails[panel] = append(s.tails[panel], append([]byte(nil), tail...))
		}
	}
	s.ops = append(s.ops, op)
}

// checkHead checks a reply's envelope up to its rows: a successful reply
// echoing a query.
func checkHead(head string) error {
	res, err := decodeReply([]byte(head + "}}"))
	if err != nil {
		return err
	}
	if res.Query == "" {
		return errors.New("reply echoes no query")
	}
	return nil
}

// checkTail checks a reply's rows part, `"groups":[...]}}`.
func checkTail(q *querySpec, set *tupleSet, tail []byte, rng *rand.Rand) error {
	var res wireQueryResult
	obj := append([]byte{'{'}, tail[:len(tail)-1]...)
	if err := json.Unmarshal(obj, &res); err != nil {
		return fmt.Errorf("bad rows: %w", err)
	}
	return checkResult(q, set, &res, rng)
}
