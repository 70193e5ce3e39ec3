package main

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"

	"tempagg/internal/core"
	"tempagg/internal/query"
	"tempagg/internal/relation"
	"tempagg/internal/server"
	"tempagg/internal/tuple"
)

// naiveValue is the timeslice aggregate at t by definition: fold every
// tuple valid at t.
func naiveValue(kind aggKind, ts []tuple.Tuple, t int64) expected {
	var n, sum, ext int64
	for _, x := range ts {
		if x.Valid.Start > t || x.Valid.End < t {
			continue
		}
		if n == 0 || (kind == aggMin && x.Value < ext) || (kind == aggMax && x.Value > ext) {
			ext = x.Value
		}
		n++
		sum += x.Value
	}
	return finalValue(kind, n, sum, ext)
}

func smallRelation(seed int64, n int) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := genRelation(rng, relSpec{tuples: n, longPct: 40, dupPct: 5})
	// A few open-ended tuples, as the feed has.
	for i := 0; i < n/50; i++ {
		ts[rng.Intn(n)].Valid.End = forever
	}
	return ts
}

func TestInstantEvalMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ts := smallRelation(seed, 300)
		rng := rand.New(rand.NewSource(seed))
		instants := []int64{0, lifespan - 1, lifespan, forever}
		for i := 0; i < 200; i++ {
			instants = append(instants, rng.Int63n(lifespan))
		}
		set := newTupleSet(ts)
		for kind := aggCount; kind <= aggMax; kind++ {
			got := set.eval(kind).values(instants)
			for i, at := range instants {
				if want := naiveValue(kind, ts, at); got[i] != want {
					t.Fatalf("seed %d %s at %d: %+v, naive %+v", seed, kind, at, got[i], want)
				}
			}
		}
	}
}

// programReply answers q the way tempaggd does: the program's in-process
// executor, encoded in the server's reply envelope.
func programReply(t *testing.T, q *querySpec, ts []tuple.Tuple) []byte {
	t.Helper()
	qr, err := query.Run(q.sql(), relation.FromTuples(q.rel, ts), nil)
	if err != nil {
		t.Fatalf("%s: %v", q.sql(), err)
	}
	line, err := json.Marshal(server.Response{OK: true, Result: qr})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func testSpecs() []*querySpec {
	w := &[2]int64{400_000, 430_000}
	at := int64(500_000)
	return []*querySpec{
		{rel: "r", aggs: []aggItem{{kind: aggCount}}},
		{rel: "r", aggs: []aggItem{{kind: aggSum}, {kind: aggMax}}, window: w},
		{rel: "r", aggs: []aggItem{{kind: aggAvg}}, at: &at},
		{rel: "r", aggs: []aggItem{{kind: aggMin}}, window: w, where: []cond{{attr: attrSalary, op: ">", num: 60_000}}},
		{rel: "r", aggs: []aggItem{{kind: aggCount}}, window: w, groupBy: true},
		{rel: "r", aggs: []aggItem{{kind: aggCount, distinct: true}}, window: w},
		{rel: "r", aggs: []aggItem{{kind: aggMax}}, at: &at, groupBy: true, where: []cond{{attr: attrName, op: "<>", str: "dep03"}}},
	}
}

func TestCheckerAcceptsProgramReplies(t *testing.T) {
	ts := smallRelation(7, 400)
	for _, q := range testSpecs() {
		if err := checkSelect(q, newTupleSet(ts), programReply(t, q, ts), rand.New(rand.NewSource(1))); err != nil {
			t.Errorf("%s: %v", q.sql(), err)
		}
	}
}

// mutate decodes a reply, applies fn to its first result's rows, and
// re-encodes it.
func mutate(t *testing.T, line []byte, fn func(rows []testRow) []testRow) []byte {
	t.Helper()
	var r testReply
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	res := &r.Result.Groups[0].Results[0]
	res.Rows = fn(res.Rows)
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// middle returns the index of a row well inside the result.
func middle(t *testing.T, rows []testRow) int {
	t.Helper()
	if len(rows) < 8 {
		t.Fatalf("only %d rows", len(rows))
	}
	return len(rows) / 2
}

func TestCheckerRejectsMutatedReplies(t *testing.T) {
	ts := smallRelation(11, 400)
	window := &[2]int64{300_000, 600_000}
	mutations := map[string]func(t *testing.T, rows []testRow) []testRow{
		"value off by one": func(t *testing.T, rows []testRow) []testRow {
			i := middle(t, rows)
			v := *rows[i].Value + 1
			rows[i].Value = &v
			return rows
		},
		"dropped row": func(t *testing.T, rows []testRow) []testRow {
			i := middle(t, rows)
			return append(rows[:i], rows[i+1:]...)
		},
		"shifted boundary": func(t *testing.T, rows []testRow) []testRow {
			// Move the boundary between rows i and i+1 one instant later,
			// keeping the rows contiguous.
			i := middle(t, rows)
			end := mustEnd(t, rows[i]) + 1
			rows[i].End = fmtTime(end)
			rows[i+1].Start = end + 1
			return rows
		},
		"value turned null": func(t *testing.T, rows []testRow) []testRow {
			rows[middle(t, rows)].Value = nil
			return rows
		},
	}
	for _, kind := range []aggKind{aggCount, aggSum, aggAvg, aggMin, aggMax} {
		q := &querySpec{rel: "r", aggs: []aggItem{{kind: kind}}, window: window}
		line := programReply(t, q, ts)
		if err := checkSelect(q, newTupleSet(ts), line, rand.New(rand.NewSource(1))); err != nil {
			t.Fatalf("%s: unmutated reply rejected: %v", kind, err)
		}
		for name, fn := range mutations {
			bad := mutate(t, line, func(rows []testRow) []testRow { return fn(t, rows) })
			if err := checkSelect(q, newTupleSet(ts), bad, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("%s: %s accepted", kind, name)
			}
		}
	}
}

func TestCheckerRejectsWrongGroupsAndErrors(t *testing.T) {
	ts := smallRelation(13, 400)
	q := &querySpec{rel: "r", aggs: []aggItem{{kind: aggCount}}, window: &[2]int64{300_000, 600_000}, groupBy: true}
	line := programReply(t, q, ts)
	var r testReply
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	r.Result.Groups = r.Result.Groups[1:]
	dropped, _ := json.Marshal(r)
	if err := checkSelect(q, newTupleSet(ts), dropped, rand.New(rand.NewSource(1))); err == nil {
		t.Error("reply missing a group accepted")
	}
	if err := checkSelect(q, newTupleSet(ts), []byte(`{"ok":false,"error":"boom"}`), rand.New(rand.NewSource(1))); err == nil {
		t.Error("error reply accepted")
	}
	// The same rows under a filter that drops tuples no longer conserve
	// mass.
	filtered := *q
	filtered.where = []cond{{attr: attrSalary, op: "<", num: 50_000}}
	if err := checkSelect(&filtered, newTupleSet(ts), line, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unfiltered reply accepted for a filtered query")
	}
}

// liveReply answers q over the first p feed tuples the way tempaggd
// answers a LIVE read at that epoch.
func liveReply(t *testing.T, q *querySpec, feed []tuple.Tuple, p int) []byte {
	t.Helper()
	ev := core.NewLive(core.LiveOptions{SegmentSize: 64})
	defer ev.Close()
	if err := ev.AddBatch(feed[:p]); err != nil {
		t.Fatal(err)
	}
	snap, err := ev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pq, err := query.Parse(q.sql())
	if err != nil {
		t.Fatal(err)
	}
	qr, err := query.ExecuteLive(pq, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(server.Response{OK: true, Result: qr})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func TestLiveCheckerBoundsThePrefix(t *testing.T) {
	feed := genFeed(rand.New(rand.NewSource(5)), feedSpec{tuples: 600, longPct: 10, foreverEvery: 50, maxDelay: 5000})
	at := feed[300].Valid.Start
	specs := []*querySpec{
		{rel: "f", live: true, aggs: []aggItem{{kind: aggCount}, {kind: aggMax}}},
		{rel: "f", live: true, aggs: []aggItem{{kind: aggCount}, {kind: aggAvg}}, window: &[2]int64{200_000, 700_000}},
		{rel: "f", live: true, aggs: []aggItem{{kind: aggCount}, {kind: aggMin}}, at: &at},
	}
	const p = 400
	for _, q := range specs {
		line := liveReply(t, q, feed, p)
		got, err := checkLive(q, feed, newTupleSet(feed), p-20, p+20, line, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: admissible reply rejected: %v", q.sql(), err)
		}
		// Equivalent prefixes differ only by tuples the range never sees.
		if got > p {
			t.Errorf("%s: prefix %d chosen, the reply was taken at %d", q.sql(), got, p)
		}
		if _, err := checkLive(q, feed, newTupleSet(feed), p+1, p+40, line, rand.New(rand.NewSource(1))); err == nil && sees(q, feed[p]) {
			t.Errorf("%s: prefix %d accepted though %d tuples were acknowledged", q.sql(), p, p+1)
		}
		if _, err := checkLive(q, feed, newTupleSet(feed), p-40, p-1, line, rand.New(rand.NewSource(1))); err == nil && sees(q, feed[p-1]) {
			t.Errorf("%s: prefix %d accepted though only %d tuples were sent", q.sql(), p, p-1)
		}
	}
	// A reply whose COUNT matches a prefix but whose MAX does not.
	q := specs[0]
	bad := liveReply(t, q, feed, p)
	var r testReply
	if err := json.Unmarshal(bad, &r); err != nil {
		t.Fatal(err)
	}
	rows := r.Result.Groups[0].Results[1].Rows
	v := *rows[len(rows)/2].Value - 1
	rows[len(rows)/2].Value = &v
	bad, _ = json.Marshal(r)
	if _, err := checkLive(q, feed, newTupleSet(feed), p-20, p+20, bad, rand.New(rand.NewSource(1))); err == nil {
		t.Error("live reply with a wrong MAX accepted")
	}
}

func mustEnd(t *testing.T, r testRow) int64 {
	t.Helper()
	end, err := strconv.ParseInt(r.End, 10, 64)
	if err != nil {
		t.Fatalf("row %+v has no finite end", r)
	}
	return end
}

// testReply is the reply format with its rows decoded, for tests that take
// a reply apart and put it back together in the server's field order.
type testReply struct {
	OK     bool `json:"ok"`
	Result struct {
		Query  string `json:"query"`
		Plan   string `json:"plan"`
		Groups []struct {
			Key     string `json:"key,omitempty"`
			Results []struct {
				Aggregate string    `json:"aggregate"`
				Rows      []testRow `json:"rows"`
			} `json:"results"`
		} `json:"groups"`
	} `json:"result"`
}

type testRow struct {
	Start  int64    `json:"start"`
	End    string   `json:"end"`
	Value  *float64 `json:"value"`
	Tuples int64    `json:"tuples"`
}

// sees reports whether tuple x counts toward q's range, so that adding it
// to a prefix changes the answer.
func sees(q *querySpec, x tuple.Tuple) bool {
	lo, hi := q.rangeOf()
	return x.Valid.Start <= hi && x.Valid.End >= lo
}

func TestParseRows(t *testing.T) {
	rows, err := parseRows([]byte(`[{"start":0,"end":"6","value":null,"tuples":0},{"start":7,"end":"forever","value":52311.5,"tuples":2},{"start":9,"end":"9","value":-3,"tuples":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	want := []row{{start: 0, end: 6, null: true}, {start: 7, end: forever, value: 52311.5}, {start: 9, end: 9, value: -3}}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, rows[i], want[i])
		}
	}
	for _, bad := range []string{
		`[{"end":"6","start":0,"value":1,"tuples":1}]`,
		`[{"start":0,"end":6,"value":1,"tuples":1}]`,
		`[{"start":0,"end":"6","value":1,"tuples":1}`,
		`[{"start":0,"end":"6","value":"1","tuples":1}]`,
	} {
		if _, err := parseRows([]byte(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
