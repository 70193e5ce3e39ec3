package main

import (
	"bytes"
	"cmp"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tempagg/internal/tuple"
)

// The checker judges every reply against the benchmark's own generated
// tuples. A temporal answer is right when, at every instant, it equals the
// plain aggregate over that instant's timeslice (Dignös et al., Snapshot
// Semantics for Temporal Multiset Relations). The checker evaluates
// timeslices itself — applying WHERE, GROUP BY and DISTINCT itself — at
// each row's first and last instant and at a seeded interior instant, and
// checks two properties of the method: the rows partition the requested
// range with every boundary on a tuple endpoint, and the answer conserves
// COUNT and SUM mass.

// forever is the open end of the time-line, as the wire format's "forever".
const forever = math.MaxInt64

// maxExact bounds the magnitudes a float64 carries exactly.
const maxExact = 1 << 53

// The reply as the line protocol documents it: one JSON object per query,
//
//	{"ok":true,"result":{"query":...,"plan":...,"groups":[{"key":...,
//	  "results":[{"aggregate":"COUNT","rows":[{"start":0,"end":"6",
//	  "value":0,"tuples":0},...]}]}]}}
//
// with "forever" as an open end and a null value for an empty group. Rows
// are most of a large reply's bytes, so they are kept raw and read by
// parseRows.
type wireResult struct {
	Aggregate string          `json:"aggregate"`
	Rows      json.RawMessage `json:"rows"`
}

type wireGroup struct {
	Key     string       `json:"key,omitempty"`
	Results []wireResult `json:"results"`
}

type wireQueryResult struct {
	Query  string      `json:"query"`
	Plan   string      `json:"plan"`
	Groups []wireGroup `json:"groups"`
}

type wireReply struct {
	OK     bool             `json:"ok"`
	Error  string           `json:"error,omitempty"`
	Result *wireQueryResult `json:"result,omitempty"`
}

// decodeReply parses one reply line and rejects error replies.
func decodeReply(line []byte) (*wireQueryResult, error) {
	var r wireReply
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("bad reply: %w", err)
	}
	if !r.OK {
		return nil, fmt.Errorf("error reply: %s", r.Error)
	}
	if r.Result == nil {
		return nil, errors.New("reply has no result")
	}
	return r.Result, nil
}

// checkAck checks an INGEST acknowledgement.
func checkAck(line []byte) error {
	var r wireReply
	if err := json.Unmarshal(line, &r); err != nil {
		return fmt.Errorf("bad ingest reply: %w", err)
	}
	if !r.OK {
		return fmt.Errorf("ingest refused: %s", r.Error)
	}
	return nil
}

// row is a decoded wire row.
type row struct {
	start, end int64
	null       bool
	value      float64
}

// parseRows reads a rows array. It accepts exactly the field order and
// spelling the server writes — start, end, value, tuples — and rejects
// anything else.
func parseRows(b []byte) ([]row, error) {
	p := rowParser{b: b}
	var out []row
	if !p.lit("[") {
		return nil, p.fail()
	}
	if p.lit("]") {
		return out, p.end()
	}
	for {
		var r row
		if !p.lit(`{"start":`) || !p.int(&r.start) || !p.lit(`,"end":"`) {
			return nil, p.fail()
		}
		if p.lit(`forever"`) {
			r.end = forever
		} else if !p.int(&r.end) || !p.lit(`"`) {
			return nil, p.fail()
		}
		if !p.lit(`,"value":`) {
			return nil, p.fail()
		}
		if p.lit("null") {
			r.null = true
		} else if !p.float(&r.value) {
			return nil, p.fail()
		}
		var tuples int64
		if !p.lit(`,"tuples":`) || !p.int(&tuples) || !p.lit("}") {
			return nil, p.fail()
		}
		out = append(out, r)
		if p.lit("]") {
			return out, p.end()
		}
		if !p.lit(",") {
			return nil, p.fail()
		}
	}
}

type rowParser struct {
	b []byte
	i int
}

func (p *rowParser) lit(s string) bool {
	if !bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		return false
	}
	p.i += len(s)
	return true
}

// number returns the next run of number characters.
func (p *rowParser) number() []byte {
	j := p.i
	for j < len(p.b) && strings.IndexByte("+-.0123456789eE", p.b[j]) >= 0 {
		j++
	}
	n := p.b[p.i:j]
	p.i = j
	return n
}

func (p *rowParser) int(v *int64) bool {
	n := p.number()
	if len(n) == 0 || len(n) > 18 {
		// Longer numbers take the general path, which bounds them.
		x, err := strconv.ParseInt(string(n), 10, 64)
		*v = x
		return err == nil
	}
	neg := n[0] == '-'
	if neg {
		n = n[1:]
	}
	var x int64
	for _, c := range n {
		if c < '0' || c > '9' {
			return false
		}
		x = x*10 + int64(c-'0')
	}
	if len(n) == 0 {
		return false
	}
	if neg {
		x = -x
	}
	*v = x
	return true
}

func (p *rowParser) float(v *float64) bool {
	start := p.i
	var x int64
	if p.int(&x) {
		// An integer literal: the conversion rounds as ParseFloat would.
		*v = float64(x)
		return true
	}
	p.i = start
	f, err := strconv.ParseFloat(string(p.number()), 64)
	*v = f
	return err == nil
}

func (p *rowParser) end() error {
	if p.i != len(p.b) {
		return p.fail()
	}
	return nil
}

func (p *rowParser) fail() error {
	return fmt.Errorf("malformed rows at byte %d", p.i)
}

// fact is a tuple as the checker holds it: no pointers, so copies are
// cheap and the collector never scans them; name indexes tupleSet.names.
type fact struct {
	start, end, value int64
	name              int32
}

// tupleSet is the tuples a query reads, sorted by start, with the
// relation-wide timeslice evaluators and endpoint set built on first use.
// Checks may share a set across goroutines.
type tupleSet struct {
	facts []fact
	names []string
	// arrival[i] is the position facts[i] had in the input.
	arrival    []int32
	evalOnce   [len(aggNames)]sync.Once
	evals      [len(aggNames)]*instantEval
	pointsOnce sync.Once
	points     endpointSet
}

func newTupleSet(ts []tuple.Tuple) *tupleSet {
	order := make([]int32, len(ts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(ts[a].Valid.Start, ts[b].Valid.Start) })
	s := &tupleSet{facts: make([]fact, len(ts)), arrival: order}
	ids := map[string]int32{}
	for i, j := range order {
		t := ts[j]
		id, ok := ids[t.Name]
		if !ok {
			id = int32(len(s.names))
			ids[t.Name] = id
			s.names = append(s.names, t.Name)
		}
		s.facts[i] = fact{start: t.Valid.Start, end: t.Valid.End, value: t.Value, name: id}
	}
	return s
}

// prefix is the set of the first n of the tuples s was built from.
func (s *tupleSet) prefix(n int) *tupleSet {
	p := &tupleSet{names: s.names}
	for i, f := range s.facts {
		if int(s.arrival[i]) < n {
			p.facts = append(p.facts, f)
			p.arrival = append(p.arrival, s.arrival[i])
		}
	}
	return p
}

func (s *tupleSet) eval(kind aggKind) *instantEval {
	s.evalOnce[kind].Do(func() { s.evals[kind] = newInstantEval(kind, s.facts) })
	return s.evals[kind]
}

func (s *tupleSet) endpoints() endpointSet {
	s.pointsOnce.Do(func() { s.points = endpointsOf(s.facts) })
	return s.points
}

// qualifying applies the window [lo, hi] and the query's WHERE to the set,
// keeping start order.
func (s *tupleSet) qualifying(q *querySpec, lo, hi int64) []fact {
	out := make([]fact, 0, len(s.facts)/8)
	for _, f := range s.facts {
		if f.end >= lo && f.start <= hi && q.passes(s.names[f.name], f.value) {
			out = append(out, f)
		}
	}
	return out
}

// distinctFacts removes exact duplicates (same name, value and interval),
// the program's documented meaning of DISTINCT.
func distinctFacts(fs []fact) []fact {
	seen := make(map[fact]bool, len(fs))
	out := make([]fact, 0, len(fs))
	for _, f := range fs {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// endpointSet holds, sorted, the instants where a constant interval may
// begin: every start, and the instant after every finite end.
type endpointSet []int64

func endpointsOf(fs []fact) endpointSet {
	points := make([]int64, 0, 2*len(fs))
	for _, f := range fs {
		points = append(points, f.start)
		if f.end != forever {
			points = append(points, f.end+1)
		}
	}
	slices.Sort(points)
	return points
}

func (p endpointSet) has(t int64) bool {
	_, found := slices.BinarySearch(p, t)
	return found
}

// groupNames returns the names of the tuples passing the query's WHERE,
// sorted: the groups an AT query reports, whatever the instant.
func (s *tupleSet) groupNames(q *querySpec) []string {
	seen := make([]bool, len(s.names))
	for _, f := range s.facts {
		if !seen[f.name] && q.passes(s.names[f.name], f.value) {
			seen[f.name] = true
		}
	}
	var out []string
	for id, ok := range seen {
		if ok {
			out = append(out, s.names[id])
		}
	}
	sort.Strings(out)
	return out
}

// checkSelect checks one SELECT reply against the tuples the query reads.
// rng draws the interior instants.
func checkSelect(q *querySpec, set *tupleSet, line []byte, rng *rand.Rand) error {
	res, err := decodeReply(line)
	if err != nil {
		return err
	}
	return checkResult(q, set, res, rng)
}

func checkResult(q *querySpec, set *tupleSet, res *wireQueryResult, rng *rand.Rand) error {
	lo, hi := q.rangeOf()
	// Only tuples overlapping the range reach a value.
	input := set.qualifying(q, lo, hi)
	keys := []string{""}
	groups := map[string][]fact{"": input}
	if q.groupBy {
		groups = map[string][]fact{}
		for _, f := range input {
			groups[set.names[f.name]] = append(groups[set.names[f.name]], f)
		}
		if q.at != nil {
			// An AT query reports every group, covering the instant or not.
			keys = set.groupNames(q)
		} else {
			keys = keys[:0]
			for k := range groups {
				keys = append(keys, k)
			}
			sort.Strings(keys)
		}
	}
	if len(res.Groups) != len(keys) {
		return fmt.Errorf("%d groups, want %d", len(res.Groups), len(keys))
	}
	// Without a filter or grouping, the timeslices inside the range are
	// those of the whole set, so its evaluators and endpoints serve.
	whole := len(q.where) == 0 && !q.groupBy
	for gi, key := range keys {
		g := res.Groups[gi]
		if g.Key != key {
			return fmt.Errorf("group %d is %q, want %q", gi, g.Key, key)
		}
		if len(g.Results) != len(q.aggs) {
			return fmt.Errorf("group %q: %d results, want %d", key, len(g.Results), len(q.aggs))
		}
		in := groups[key]
		var deduped []fact
		var points endpointSet
		if whole {
			points = set.endpoints()
		} else {
			points = endpointsOf(in)
		}
		for ai, a := range q.aggs {
			r := g.Results[ai]
			if r.Aggregate != a.kind.String() {
				return fmt.Errorf("group %q result %d is %s, want %s", key, ai, r.Aggregate, a.kind)
			}
			in := in
			if a.distinct {
				if deduped == nil {
					deduped = distinctFacts(in)
				}
				in = deduped
			}
			var ev *instantEval
			if whole && !a.distinct && a.kind != aggMin && a.kind != aggMax {
				ev = set.eval(a.kind)
			} else {
				ev = newInstantEval(a.kind, in)
			}
			rows, err := parseRows(r.Rows)
			if err != nil {
				return fmt.Errorf("group %q %s: %w", key, a.kind, err)
			}
			if err := checkRows(a.kind, in, ev, points, rows, lo, hi, rng); err != nil {
				return fmt.Errorf("group %q %s: %w", key, a.kind, err)
			}
		}
	}
	return nil
}

// checkRows checks one aggregate's rows over [lo, hi]: in is the input
// tuples, ev evaluates their timeslices, points holds their endpoints.
func checkRows(kind aggKind, in []fact, ev *instantEval, points endpointSet, rows []row, lo, hi int64, rng *rand.Rand) error {
	if err := checkPartition(points, rows, lo, hi); err != nil {
		return err
	}
	instants := make([]int64, 0, 3*len(rows))
	for _, r := range rows {
		instants = append(instants, r.start)
		if r.end != r.start {
			instants = append(instants, r.end)
		}
		switch {
		case r.end == forever:
			instants = append(instants, r.start+1+rng.Int63n(lifespan))
		case r.end-r.start >= 2:
			instants = append(instants, r.start+1+rng.Int63n(r.end-r.start-1))
		}
	}
	want := ev.values(instants)
	k := 0
	for i, r := range rows {
		n := 1
		if r.end != r.start {
			n++
		}
		if r.end == forever || r.end-r.start >= 2 {
			n++
		}
		for j := 0; j < n; j, k = j+1, k+1 {
			w := want[k]
			if w.null != r.null || (!w.null && w.value != r.value) {
				return fmt.Errorf("row %d [%d,%s] at instant %d: got %s, timeslice gives %s",
					i, r.start, fmtTime(r.end), instants[k], fmtValue(r.null, r.value), fmtValue(w.null, w.value))
			}
		}
	}
	if kind == aggCount || kind == aggSum {
		return checkConservation(kind, in, rows, lo, hi)
	}
	return nil
}

// checkPartition checks that the rows cover [lo, hi] in order with no gap
// and no overlap, and that every inner boundary falls on a tuple endpoint:
// where one row ends at e, some tuple ends at e or starts at e+1.
func checkPartition(points endpointSet, rows []row, lo, hi int64) error {
	if len(rows) == 0 {
		return errors.New("no rows")
	}
	if rows[0].start != lo {
		return fmt.Errorf("rows start at %d, want %d", rows[0].start, lo)
	}
	if last := rows[len(rows)-1].end; last != hi {
		return fmt.Errorf("rows end at %s, want %s", fmtTime(last), fmtTime(hi))
	}
	for i, r := range rows {
		if r.start > r.end {
			return fmt.Errorf("row %d [%d,%s] is inverted", i, r.start, fmtTime(r.end))
		}
		if i == len(rows)-1 {
			break
		}
		if r.end == forever || rows[i+1].start != r.end+1 {
			return fmt.Errorf("rows %d and %d do not meet: [%d,%s] then [%d,...]",
				i, i+1, r.start, fmtTime(r.end), rows[i+1].start)
		}
		if !points.has(r.end + 1) {
			return fmt.Errorf("boundary after %d is no tuple endpoint", r.end)
		}
	}
	return nil
}

// checkConservation checks Σ rows value·|row| = Σ tuples weight·|valid ∩
// range| over the finite horizon, with weight 1 for COUNT and the value for
// SUM. An open-ended last row is left out of the mass and checked instead
// against the open-ended tuples that cover it.
func checkConservation(kind aggKind, in []fact, rows []row, lo, hi int64) error {
	weight := func(f fact) int64 {
		if kind == aggCount {
			return 1
		}
		return f.value
	}
	finiteHi := hi
	last := rows[len(rows)-1]
	if last.end == forever {
		finiteHi = last.start - 1
		var n, sum int64
		for _, f := range in {
			if f.end == forever && f.start <= last.start {
				n++
				sum += f.value
			}
		}
		want, null := float64(n), false
		if kind == aggSum {
			want, null = float64(sum), n == 0
		}
		if last.null != null || last.value != want {
			return fmt.Errorf("open-ended last row holds %s, its %d open-ended tuples give %s",
				fmtValue(last.null, last.value), n, fmtValue(null, want))
		}
	}
	got, want := new(big.Int), new(big.Int)
	var term big.Int
	for i, r := range rows {
		if r.end == forever || r.null {
			continue
		}
		if r.value != math.Trunc(r.value) || math.Abs(r.value) >= maxExact {
			return fmt.Errorf("row %d: %s value %v is not an exact integer", i, kind, r.value)
		}
		term.SetInt64(int64(r.value))
		got.Add(got, term.Mul(&term, big.NewInt(r.end-r.start+1)))
	}
	for _, f := range in {
		s, e := max(f.start, lo), min(f.end, finiteHi)
		if s > e {
			continue
		}
		term.SetInt64(weight(f))
		want.Add(want, term.Mul(&term, big.NewInt(e-s+1)))
	}
	if got.Cmp(want) != 0 {
		return fmt.Errorf("%s mass over [%d,%s] is %s, tuples give %s", kind, lo, fmtTime(finiteHi), got, want)
	}
	return nil
}

// expected is the timeslice aggregate at one instant.
type expected struct {
	null  bool
	value float64
}

// instantEval evaluates timeslice aggregates of a fixed tuple set at many
// instants. COUNT, SUM and AVG come from sorted endpoint arrays: the tuples
// valid at t are those started by t less those ended before t. MIN and MAX
// come from one sweep over the sorted instants with a heap of started
// tuples, discarding the top while it has ended. The input must be sorted
// by start.
type instantEval struct {
	kind         aggKind
	starts, ends []int64 // sorted
	startSums    []int64 // startSums[i] = Σ values of the i earliest starts
	endSums      []int64
	byStart      []fact
}

func newInstantEval(kind aggKind, in []fact) *instantEval {
	e := &instantEval{kind: kind}
	if kind == aggMin || kind == aggMax {
		e.byStart = in
		return e
	}
	type pt struct{ t, v int64 }
	es := make([]pt, len(in))
	for i, f := range in {
		es[i] = pt{f.end, f.value}
	}
	slices.SortFunc(es, func(a, b pt) int { return cmp.Compare(a.t, b.t) })
	e.starts, e.ends = make([]int64, len(in)), make([]int64, len(in))
	e.startSums, e.endSums = make([]int64, len(in)+1), make([]int64, len(in)+1)
	for i, f := range in {
		e.starts[i], e.ends[i] = f.start, es[i].t
		e.startSums[i+1] = e.startSums[i] + f.value
		e.endSums[i+1] = e.endSums[i] + es[i].v
	}
	return e
}

// values returns the timeslice aggregate at each instant.
func (e *instantEval) values(instants []int64) []expected {
	out := make([]expected, len(instants))
	if e.kind == aggMin || e.kind == aggMax {
		e.extremes(instants, out)
		return out
	}
	for i, t := range instants {
		started := sort.Search(len(e.starts), func(j int) bool { return e.starts[j] > t })
		ended := sort.Search(len(e.ends), func(j int) bool { return e.ends[j] >= t })
		n := int64(started - ended)
		sum := e.startSums[started] - e.endSums[ended]
		out[i] = finalValue(e.kind, n, sum, 0)
	}
	return out
}

func (e *instantEval) extremes(instants []int64, out []expected) {
	order := make([]int, len(instants))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return instants[order[a]] < instants[order[b]] })
	h := &extremeHeap{max: e.kind == aggMax}
	next := 0
	for _, i := range order {
		t := instants[i]
		for next < len(e.byStart) && e.byStart[next].start <= t {
			if e.byStart[next].end >= t {
				heap.Push(h, e.byStart[next])
			}
			next++
		}
		for h.Len() > 0 && h.fs[0].end < t {
			heap.Pop(h)
		}
		if h.Len() == 0 {
			out[i] = expected{null: true}
			continue
		}
		out[i] = expected{value: float64(h.fs[0].value)}
	}
}

// finalValue finishes an aggregate from its count, sum and extreme, the
// way SQL defines it: COUNT of nothing is 0, every other aggregate of
// nothing is null.
func finalValue(kind aggKind, n, sum, ext int64) expected {
	if n == 0 {
		return expected{null: kind != aggCount}
	}
	switch kind {
	case aggCount:
		return expected{value: float64(n)}
	case aggSum:
		return expected{value: float64(sum)}
	case aggAvg:
		return expected{value: float64(sum) / float64(n)}
	}
	return expected{value: float64(ext)}
}

// extremeHeap keeps the started tuples with the extreme value on top.
type extremeHeap struct {
	fs  []fact
	max bool
}

func (h *extremeHeap) Len() int { return len(h.fs) }
func (h *extremeHeap) Less(i, j int) bool {
	if h.max {
		return h.fs[i].value > h.fs[j].value
	}
	return h.fs[i].value < h.fs[j].value
}
func (h *extremeHeap) Swap(i, j int) { h.fs[i], h.fs[j] = h.fs[j], h.fs[i] }
func (h *extremeHeap) Push(x any)    { h.fs = append(h.fs, x.(fact)) }
func (h *extremeHeap) Pop() any {
	f := h.fs[len(h.fs)-1]
	h.fs = h.fs[:len(h.fs)-1]
	return f
}

// checkLive checks a SELECT ... LIVE reply. Reads run beside ingestion, so
// the reply must equal the aggregate over some prefix of the feed whose
// length lies between acked (tuples acknowledged before the read was sent)
// and sent (tuples sent before its reply arrived) — Sela & Petrank's
// condition for concurrent aggregate queries. The reply's COUNT mass,
// which grows with every tuple the range sees, picks the prefix; the whole
// reply is then checked against it. It returns the prefix length.
// feed holds the round's tuples in arrival order and set the same tuples
// prepared for checking.
func checkLive(q *querySpec, feed []tuple.Tuple, set *tupleSet, acked, sent int, line []byte, rng *rand.Rand) (int, error) {
	res, err := decodeReply(line)
	if err != nil {
		return 0, err
	}
	if q.aggs[0].kind != aggCount || q.aggs[0].distinct || q.groupBy || len(q.where) > 0 {
		return 0, errors.New("live check needs a plain COUNT first in the select list")
	}
	if len(res.Groups) != 1 || len(res.Groups[0].Results) == 0 {
		return 0, errors.New("live reply has no COUNT result")
	}
	rows, err := parseRows(res.Groups[0].Results[0].Rows)
	if err != nil {
		return 0, err
	}
	lo, hi := q.rangeOf()
	horizon := lifespan // every finite endpoint lies below the lifespan
	top := min(hi, horizon)
	var mass int64
	for _, r := range rows {
		s, e := max(r.start, lo), min(r.end, top)
		if s > e || r.null {
			continue
		}
		if r.value != math.Trunc(r.value) || r.value < 0 || r.value > float64(len(feed)) {
			return 0, fmt.Errorf("COUNT value %v is no tuple count", r.value)
		}
		mass += int64(r.value) * (e - s + 1)
	}
	sent = min(sent, len(feed))
	if acked > sent {
		return 0, fmt.Errorf("admissible prefix range [%d,%d] is empty", acked, sent)
	}
	overlap := func(t tuple.Tuple) int64 {
		s, e := max(t.Valid.Start, lo), min(t.Valid.End, top)
		if s > e {
			return 0
		}
		return e - s + 1
	}
	var seen int64
	for _, t := range feed[:acked] {
		seen += overlap(t)
	}
	p := acked
	for seen < mass && p < sent {
		seen += overlap(feed[p])
		p++
	}
	if seen != mass {
		return 0, fmt.Errorf("COUNT mass %d matches no prefix of length %d..%d", mass, acked, sent)
	}
	if err := checkResult(q, set.prefix(p), res, rng); err != nil {
		return 0, fmt.Errorf("against prefix %d: %w", p, err)
	}
	return p, nil
}

func fmtTime(t int64) string {
	if t == forever {
		return "forever"
	}
	return strconv.FormatInt(t, 10)
}

func fmtValue(null bool, v float64) string {
	if null {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
