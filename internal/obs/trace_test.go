package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestObserverLifecycle(t *testing.T) {
	slowBuf := &strings.Builder{}
	o := NewObserver(4, NewSlowLog(slowBuf, 0)) // threshold 0: log everything
	tr := o.StartQuery("SELECT COUNT(Name) FROM Employed")
	if tr == nil {
		t.Fatal("StartQuery returned nil on a live observer")
	}
	if tr.Sink() == nil {
		t.Fatal("trace must expose the metrics sink")
	}
	sp := tr.StartSpan("plan")
	sp.End()
	tr.SetPlan("k-ordered-tree", 1, "k-ordered-tree(k=1) — relation is sorted")
	tr.AddStats(10, 7, 9, 2)
	tr.AddStats(10, 7, 12, 0)
	tr.SetGroups(2)
	o.FinishQuery(tr, nil)

	if tr.Duration <= 0 {
		t.Error("FinishQuery must stamp a positive duration")
	}
	if tr.Stats != (TraceCounters{Tuples: 20, LiveNodes: 14, PeakNodes: 12, Collected: 2}) {
		t.Errorf("stats snapshot = %+v", tr.Stats)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "plan" {
		t.Errorf("spans = %+v", tr.Spans)
	}

	got := o.Traces.Snapshot()
	if len(got) != 1 || got[0] != tr {
		t.Errorf("trace ring = %+v", got)
	}
	var entry struct {
		Query     string `json:"query"`
		Algorithm string `json:"algorithm"`
	}
	if err := json.Unmarshal([]byte(slowBuf.String()), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, slowBuf.String())
	}
	if entry.Algorithm != "k-ordered-tree" {
		t.Errorf("slow log entry = %+v", entry)
	}

	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tempagg_queries_total{algorithm="k-ordered-tree",status="ok"} 1`,
		`tempagg_slow_queries_total 1`,
		`tempagg_query_duration_seconds_count{algorithm="k-ordered-tree"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestFinishQueryError(t *testing.T) {
	o := NewObserver(2, nil)
	tr := o.StartQuery("SELECT BOGUS")
	o.FinishQuery(tr, errors.New("query: parse error"))
	if tr.Err == "" {
		t.Error("error must be recorded on the trace")
	}
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// A query that fails before planning is counted under algorithm "none".
	if want := `tempagg_queries_total{algorithm="none",status="error"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

func TestNilObserverIsFullyDisabled(t *testing.T) {
	var o *Observer
	tr := o.StartQuery("SELECT 1")
	if tr != nil {
		t.Fatal("nil observer must yield a nil trace")
	}
	sp := tr.StartSpan("plan")
	sp.End()
	tr.SetPlan("x", 0, "p")
	tr.AddStats(1, 1, 1, 1)
	tr.SetGroups(1)
	if tr.Sink() != nil {
		t.Error("nil trace must have a nil sink")
	}
	o.FinishQuery(tr, nil)
	if o.Registry() != nil {
		t.Error("nil observer must have a nil registry")
	}
}

func TestTraceBufferEviction(t *testing.T) {
	b := NewTraceBuffer(3)
	for i := 1; i <= 5; i++ {
		b.Push(&QueryTrace{ID: int64(i)})
	}
	got := b.Snapshot()
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 5 {
		ids := make([]int64, len(got))
		for i, tr := range got {
			ids[i] = tr.ID
		}
		t.Errorf("ring ids = %v, want [3 4 5]", ids)
	}
}

func TestSlowLogThreshold(t *testing.T) {
	var buf strings.Builder
	l := NewSlowLog(&buf, 50*time.Millisecond)
	fast := &QueryTrace{Query: "fast", Duration: time.Millisecond}
	if logged, err := l.Record(fast); logged || err != nil {
		t.Errorf("fast query logged=%v err=%v", logged, err)
	}
	slow := &QueryTrace{Query: "slow", Duration: time.Second}
	if logged, err := l.Record(slow); !logged || err != nil {
		t.Errorf("slow query logged=%v err=%v", logged, err)
	}
	if !strings.Contains(buf.String(), `"query":"slow"`) {
		t.Errorf("slow log = %q", buf.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestSlowLogWriteFailureBecomesCounter(t *testing.T) {
	o := NewObserver(1, NewSlowLog(failWriter{}, 0))
	tr := o.StartQuery("SELECT COUNT(Name) FROM Employed")
	tr.SetPlan("linked-list", 0, "forced")
	o.FinishQuery(tr, nil)
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tempagg_slow_queries_total 1",
		"tempagg_slowlog_write_errors_total 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestHTTPHandlers(t *testing.T) {
	o := NewObserver(4, nil)
	tr := o.StartQuery("SELECT COUNT(Name) FROM Employed")
	tr.SetPlan("aggregation-tree", 0, "unsorted relation")
	o.FinishQuery(tr, nil)

	rec := httptest.NewRecorder()
	MetricsHandler(o.Registry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "tempagg_queries_total") {
		t.Errorf("/metrics: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}

	rec = httptest.NewRecorder()
	TracesHandler(o.Traces).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces: code=%d", rec.Code)
	}
	var traces []*QueryTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].Algorithm != "aggregation-tree" {
		t.Errorf("traces = %+v", traces)
	}

	rec = httptest.NewRecorder()
	MetricsHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 404 {
		t.Errorf("disabled /metrics: code=%d, want 404", rec.Code)
	}
}

func TestMetricsSinkRoundTrip(t *testing.T) {
	m := NewMetrics(NewRegistry())
	var s Sink = m
	s.Record("k-ordered-tree", EvalCounters{
		Tuples: 5, NodesAllocated: 9, NodesCollected: 3, PeakNodes: 6,
		GCThreshold: 17, GC: true,
	})
	// A lower peak must not regress the gauge, and a run that never
	// collected must leave the watermark as it was.
	s.Record("k-ordered-tree", EvalCounters{PeakNodes: 4, GCThreshold: 2})
	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tempagg_tuples_processed_total{algorithm="k-ordered-tree"} 5`,
		`tempagg_tree_nodes_allocated_total{algorithm="k-ordered-tree"} 9`,
		`tempagg_tree_nodes_collected_total{algorithm="k-ordered-tree"} 3`,
		`tempagg_tree_nodes_peak{algorithm="k-ordered-tree"} 6`,
		`tempagg_gc_threshold_time{algorithm="k-ordered-tree"} 17`,
		// Every evaluator-family series exists after one record, at zero
		// where the run had nothing to count.
		`tempagg_sweep_events_total{algorithm="k-ordered-tree"} 0`,
		`tempagg_sweep_fallbacks_total{algorithm="k-ordered-tree"} 0`,
		`tempagg_index_nodes{algorithm="k-ordered-tree"} 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}
