package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/catalog"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/jsonenc"
	"tempagg/internal/query"
	"tempagg/internal/relation"
)

// The reply's wire shape as encoding/json wrote it before the append
// encoder: reflection over these structs is the reference the encoder must
// match byte for byte.
type (
	wireRow struct {
		Start int64    `json:"start"`
		End   string   `json:"end"`
		Value *float64 `json:"value"`
		Count int64    `json:"tuples"`
	}
	wireResult struct {
		Aggregate string    `json:"aggregate"`
		Rows      []wireRow `json:"rows"`
	}
	wireGroup struct {
		Key     string        `json:"key,omitempty"`
		Results []*wireResult `json:"results"`
	}
	wireQueryResult struct {
		Query   string      `json:"query"`
		Plan    string      `json:"plan"`
		Groups  []wireGroup `json:"groups"`
		Explain string      `json:"explain,omitempty"`
	}
	wireResponse struct {
		OK     bool             `json:"ok"`
		Error  string           `json:"error,omitempty"`
		Result *wireQueryResult `json:"result,omitempty"`
	}
)

func wireOf(resp Response) wireResponse {
	w := wireResponse{OK: resp.OK, Error: resp.Error}
	qr := resp.Result
	if qr == nil {
		return w
	}
	w.Result = &wireQueryResult{Query: qr.Query.String(), Plan: qr.Plan.String(), Explain: qr.Explain}
	for _, g := range qr.Groups {
		wg := wireGroup{Key: g.Key}
		if g.Results != nil {
			wg.Results = []*wireResult{}
		}
		for _, r := range g.Results {
			if r == nil {
				wg.Results = append(wg.Results, nil)
				continue
			}
			wr := &wireResult{Aggregate: r.Func.Kind().String(), Rows: []wireRow{}}
			for i, row := range r.Rows {
				jr := wireRow{Start: row.Interval.Start, End: "forever", Count: row.State.Count()}
				if row.Interval.End != interval.Forever {
					jr.End = interval.FormatTime(row.Interval.End)
				}
				if v := r.Value(i); !v.Null {
					jr.Value = &v.Float
				}
				wr.Rows = append(wr.Rows, jr)
			}
			wg.Results = append(wg.Results, wr)
		}
		w.Result.Groups = append(w.Result.Groups, wg)
	}
	return w
}

// checkEncoding requires every way the program encodes resp — the
// server's chunked reply, Response.MarshalJSON, and json.Marshal over a
// Response value — to write what encoding/json writes for its wire shape.
func checkEncoding(t *testing.T, resp Response) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(wireOf(resp)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := (&Server{}).reply(jsonenc.NewEncoder(&got), resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("reply differs from encoding/json at byte %d:\n got %.300q\nwant %.300q",
			firstDiff(got.Bytes(), want.Bytes()), got.Bytes(), want.Bytes())
	}
	line := want.Bytes()[:want.Len()-1]
	for name, marshal := range map[string]func() ([]byte, error){
		"MarshalJSON":  resp.MarshalJSON,
		"json.Marshal": func() ([]byte, error) { return json.Marshal(resp) },
	} {
		b, err := marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(b, line) {
			t.Fatalf("%s differs from encoding/json at byte %d", name, firstDiff(b, line))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkFloat requires the encoder's float64 to match encoding/json's,
// including its refusal of NaN and the infinities.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, wantErr := json.Marshal(f)
	var e jsonenc.Encoder
	e.Float(f)
	if (wantErr == nil) != (e.Err() == nil) {
		t.Fatalf("Float(%v): error %v, encoding/json %v", f, e.Err(), wantErr)
	}
	if wantErr != nil {
		if e.Err().Error() != wantErr.Error() || len(e.Buf) != 0 {
			t.Fatalf("Float(%v): %q and %v, want nothing and %v", f, e.Buf, e.Err(), wantErr)
		}
		return
	}
	if !bytes.Equal(e.Buf, want) {
		t.Fatalf("Float(%v) = %s, encoding/json %s", f, e.Buf, want)
	}
}

// result builds one aggregate result whose rows carry the given
// (count, sum, ext) counters over consecutive intervals, the last one
// reaching Forever.
func result(kind aggregate.Kind, counters ...[3]int64) *core.Result {
	f := aggregate.For(kind)
	r := &core.Result{Func: f}
	start := interval.Time(0)
	for i, c := range counters {
		end := start + int64(i) + 1
		if i == len(counters)-1 {
			end = interval.Forever
		}
		r.Rows = append(r.Rows, core.Row{Interval: interval.MustNew(start, end), State: f.FromCounters(c[0], c[1], c[2])})
		start = end + 1
	}
	return r
}

func mustParse(t testing.TB, sql string) *query.Query {
	t.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// nasty is text with every byte class encoding/json escapes.
const nasty = "a<b>c&d \"q\" back\\slash \b\f\n\r\t \x00\x01\x1f\x7f é \u2028 \u2029 \xff\xfe tail"

func TestEncodeMatchesJSON(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(Name) FROM Employed WHERE Salary < 50000")
	plan := query.Plan{Reason: "reason with <html> & " + nasty}
	qr := func(groups ...query.GroupResult) *query.QueryResult {
		return &query.QueryResult{Query: q, Plan: plan, Groups: groups}
	}
	one := func(r ...*core.Result) query.GroupResult { return query.GroupResult{Results: r} }
	const big = math.MaxInt64
	cases := map[string]Response{
		"error":            {Error: "query: " + nasty},
		"ok without rows":  {OK: true},
		"error and result": {Error: "partial", Result: qr()},
		"nil groups":       {OK: true, Result: qr()},
		"empty groups":     {OK: true, Result: &query.QueryResult{Query: q, Plan: plan, Groups: []query.GroupResult{}}},
		"nil results":      {OK: true, Result: qr(query.GroupResult{Key: "k"})},
		"empty results":    {OK: true, Result: qr(query.GroupResult{Results: []*core.Result{}})},
		"nil result":       {OK: true, Result: qr(one(nil, result(aggregate.Count, [3]int64{1, 1, 1})))},
		"zero rows":        {OK: true, Result: qr(one(&core.Result{Func: aggregate.For(aggregate.Sum)}, &core.Result{Func: aggregate.For(aggregate.Max), Rows: []core.Row{}}))},
		"grouped keys": {OK: true, Result: qr(
			query.GroupResult{Key: "Dept=<R&D>", Results: []*core.Result{result(aggregate.Count, [3]int64{0, 0, 0}, [3]int64{2, 5, 1})}},
			query.GroupResult{Key: nasty, Results: []*core.Result{result(aggregate.Min, [3]int64{0, 0, 0}, [3]int64{1, -7, -7})}},
		)},
		"explain": {OK: true, Result: &query.QueryResult{
			Query: mustParse(t, "EXPLAIN ANALYZE SELECT SUM(Salary) FROM Employed"), Plan: plan,
			Explain: "plan: sweep\n  scan <file> & \"more\"\n\trows: 7\n",
		}},
		"null values": {OK: true, Result: qr(one(
			result(aggregate.Sum, [3]int64{0, 0, 0}, [3]int64{1, 3, 3}, [3]int64{0, 0, 0}),
			result(aggregate.Avg, [3]int64{0, 0, 0}),
			result(aggregate.Min, [3]int64{0, 0, 0}),
			result(aggregate.Max, [3]int64{0, 0, 0}),
		))},
		"large and negative values": {OK: true, Result: qr(one(
			result(aggregate.Sum, [3]int64{1, big, 0}, [3]int64{1, -big, 0}, [3]int64{2, math.MinInt64, 0},
				[3]int64{1, 1 << 53, 0}, [3]int64{1, 1<<53 + 1, 0}, [3]int64{1, -(1<<53 + 1), 0},
				[3]int64{1, 1<<60 + 1, 0}, [3]int64{1, -1, 0}, [3]int64{1, 0, 0}),
			result(aggregate.Count, [3]int64{big, 0, 0}, [3]int64{1 << 53, 0, 0}),
			result(aggregate.Max, [3]int64{1, 0, big}, [3]int64{1, 0, -big}, [3]int64{1, 0, big - 1}),
		))},
		"avg fractions": {OK: true, Result: qr(one(result(aggregate.Avg,
			[3]int64{3, 10, 0}, [3]int64{3, -10, 0}, [3]int64{2, -7, 0}, [3]int64{7, 1, 0},
			[3]int64{1_000_000, 1, 0}, [3]int64{999_999, 1, 0}, [3]int64{10_000_000, 1, 0},
			[3]int64{3, -1, 0}, [3]int64{3, big, 0}, [3]int64{2, big, 0}, [3]int64{big, 1, 0},
			[3]int64{7, 1 << 60, 0}, [3]int64{4, 6, 0},
		)))},
	}
	// Real results through the catalog, including a WHERE whose canonical
	// text carries `<`.
	dir := t.TempDir()
	if err := relation.WriteFile(filepath.Join(dir, "Employed.rel"), relation.Employed()); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT COUNT(Name), AVG(Salary) FROM Employed",
		"SELECT COUNT(Name), MIN(Salary) FROM Employed WHERE Salary < 50000",
		"SELECT Name, SUM(Salary) FROM Employed GROUP BY Name",
		"EXPLAIN ANALYZE SELECT MAX(Salary) FROM Employed",
		"SELECT COUNT(Name) FROM Employed AT 19",
	} {
		res, err := cat.Query(sql, relation.ScanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cases[sql] = Response{OK: true, Result: res}
	}
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) { checkEncoding(t, resp) })
	}
}

func TestEncodeFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, -2.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 9.99e-7, 1.5e-10, 5e-324, -5e-324,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
		1 << 53, 1<<53 + 2, 1 << 60, math.MaxInt64, math.MinInt64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkFloat(t, f)
	}
}

// TestEncodeChunksLargeReply: a reply several chunks long arrives intact,
// and the encoder's buffer never grows past one chunk and a row.
func TestEncodeChunksLargeReply(t *testing.T) {
	resp := largeResponse(t, 16<<10)
	var out bytes.Buffer
	enc := jsonenc.NewEncoder(&out)
	checkEncoding(t, resp)
	if err := (&Server{}).reply(enc, resp); err != nil {
		t.Fatal(err)
	}
	if out.Len() < 4*jsonenc.ChunkSize {
		t.Fatalf("reply of %d bytes is too small to need chunks", out.Len())
	}
	if c := cap(enc.Buf); c > 2*jsonenc.ChunkSize {
		t.Fatalf("encoder buffer grew to %d bytes for a %d-byte reply", c, out.Len())
	}
	if enc.Written() != int64(out.Len()) {
		t.Fatalf("Written() = %d, wrote %d", enc.Written(), out.Len())
	}
}

// largeResponse is a COUNT and an AVG result of n rows each, the AVG
// mostly fractional.
func largeResponse(t testing.TB, n int) Response {
	rng := rand.New(rand.NewSource(7))
	avg := make([][3]int64, n)
	count := make([][3]int64, n)
	for i := range avg {
		c := rng.Int63n(200)
		avg[i] = [3]int64{c, c*(20_000+rng.Int63n(80_000)) + rng.Int63n(c+1), 0}
		count[i] = [3]int64{c, 0, 0}
	}
	return Response{OK: true, Result: &query.QueryResult{
		Query: mustParse(t, "SELECT COUNT(Name), AVG(Salary) FROM feed"),
		Plan:  query.Plan{Reason: "whole history"},
		Groups: []query.GroupResult{{Results: []*core.Result{
			result(aggregate.Count, count...), result(aggregate.Avg, avg...),
		}}},
	}}
}

// TestEncodeAllocations is a counters-not-clocks gate on the encoder:
// encoding a 16K-row reply allocates no more than encoding a 2-row one
// (only the query and plan text allocate), whether into a warm buffer or
// in chunks to a writer. The race runtime allocates on its own account
// (11–15 allocations a run, and more for the larger reply at times), so
// the gate holds only with the race detector off.
func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race runtime's own")
	}
	const maxAllocs = 12
	measure := func(resp Response) (warm, chunked float64) {
		e := jsonenc.Encoder{Buf: make([]byte, 0, 4<<20)}
		warm = testing.AllocsPerRun(10, func() {
			e.Buf = e.Buf[:0]
			resp.encode(&e)
		})
		w := jsonenc.NewEncoder(io.Discard)
		chunked = testing.AllocsPerRun(10, func() {
			if err := (&Server{}).reply(w, resp); err != nil {
				t.Fatal(err)
			}
		})
		return warm, chunked
	}
	smallWarm, smallChunked := measure(largeResponse(t, 1))
	warm, chunked := measure(largeResponse(t, 8<<10))
	if warm > smallWarm || warm > maxAllocs {
		t.Errorf("a 16K-row reply into a warm buffer made %.0f allocations, a 2-row one %.0f (limit %d)",
			warm, smallWarm, maxAllocs)
	}
	if chunked > smallChunked || chunked > maxAllocs {
		t.Errorf("a 16K-row reply in chunks made %.0f allocations, a 2-row one %.0f (limit %d)",
			chunked, smallChunked, maxAllocs)
	}
}

// FuzzEncodeMatchesJSON drives the equality gate over random replies:
// arbitrary error, key, plan and EXPLAIN text, random group shapes, and
// rows whose counters span null, negative, near-MaxInt64 and fractional
// values. f also goes through the float formatter alone, reaching the
// exponent edges and non-finite values no aggregate produces.
func FuzzEncodeMatchesJSON(f *testing.F) {
	f.Add("query: <bad> & \"worse\"", "Dept=R&D", "plan\nrows: 3\n", "reason", int64(1), 1e21)
	f.Add(nasty, "", "", nasty, int64(2), 1e-7)
	f.Add("", "\u2028", "\xff", "", int64(3), math.Inf(1))
	f.Add("", "k", "", "sorted <input>", int64(4), 0.1)
	queries := []*query.Query{
		mustParse(f, "SELECT COUNT(Name) FROM Employed"),
		mustParse(f, "SELECT Name, AVG(Salary), MIN(Salary) FROM Employed WHERE Salary < 50000 AND Salary > 10 GROUP BY Name"),
		mustParse(f, "EXPLAIN SELECT SUM(Salary) FROM Employed VALID OVERLAPS 3 900"),
	}
	f.Fuzz(func(t *testing.T, errText, key, explain, reason string, seed int64, fl float64) {
		checkFloat(t, fl)
		rng := rand.New(rand.NewSource(seed))
		resp := Response{OK: rng.Intn(4) != 0}
		if rng.Intn(3) == 0 {
			resp.Error = errText
		}
		if rng.Intn(5) == 0 {
			checkEncoding(t, resp)
			return
		}
		qr := &query.QueryResult{
			Query: queries[rng.Intn(len(queries))],
			Plan:  query.Plan{Reason: reason},
		}
		if rng.Intn(2) == 0 {
			qr.Explain = explain
		}
		for range rng.Intn(4) {
			g := query.GroupResult{}
			if rng.Intn(2) == 0 {
				g.Key = key
			}
			if rng.Intn(6) != 0 {
				g.Results = []*core.Result{}
			}
			for range rng.Intn(3) {
				if rng.Intn(8) == 0 {
					g.Results = append(g.Results, nil)
					continue
				}
				g.Results = append(g.Results, randomResult(rng))
			}
			qr.Groups = append(qr.Groups, g)
		}
		resp.Result = qr
		checkEncoding(t, resp)
	})
}

func randomResult(rng *rand.Rand) *core.Result {
	kind := aggregate.Kinds()[rng.Intn(len(aggregate.Kinds()))]
	value := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return math.MaxInt64 - rng.Int63n(1<<20)
		case 1:
			return math.MinInt64 + rng.Int63n(1<<20)
		case 2:
			return 1<<53 - 8 + rng.Int63n(16)
		case 3:
			return rng.Int63n(2_000_001) - 1_000_000
		}
		return rng.Int63() - rng.Int63()
	}
	counters := make([][3]int64, rng.Intn(20))
	for i := range counters {
		if rng.Intn(4) == 0 {
			continue // an empty row: null for all but COUNT
		}
		count := 1 + rng.Int63n(5)
		switch rng.Intn(3) {
		case 0:
			count = 1 + rng.Int63n(50_000_000) // tiny AVG fractions
		case 1:
			count = math.MaxInt64 - rng.Int63n(4)
		}
		counters[i] = [3]int64{count, value(), value()}
	}
	return result(kind, counters...)
}

// BenchmarkReplyEncode writes a 64K-row COUNT + AVG reply (the shape of
// a whole-history read) in chunks, as the server does.
func BenchmarkReplyEncode(b *testing.B) {
	resp := largeResponse(b, 32<<10)
	enc := jsonenc.NewEncoder(io.Discard)
	b.ReportAllocs()
	for b.Loop() {
		if err := (&Server{}).reply(enc, resp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(enc.Written() / int64(b.N))
}
