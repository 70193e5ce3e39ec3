package query

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tempagg/internal/obs"
)

// RenderExplain renders the EXPLAIN [ANALYZE] report for a planned (and,
// with a trace, executed) query. With tr == nil only the plan tree is
// rendered: the chosen strategy and every alternative the planner priced.
// With a finished trace the report adds the measured span tree — each stage
// with wall/CPU time and its §6 counter snapshot — and the
// estimated-vs-actual cost delta.
//
// The same renderer serves the EXPLAIN statement, tempagg -explain, and the
// daemon, so their output is identical for identical queries.
func RenderExplain(qr *QueryResult, tr *obs.QueryTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", qr.Plan)
	if len(qr.Plan.Alternatives) > 0 {
		b.WriteString("alternatives:\n")
		for _, a := range qr.Plan.Alternatives {
			marker := "  "
			if a.Chosen {
				marker = "->"
			}
			if a.Cost > 0 {
				fmt.Fprintf(&b, "  %s %-28s cost=%.4g\n", marker, a.Algorithm, a.Cost)
			} else {
				fmt.Fprintf(&b, "  %s %-28s\n", marker, a.Algorithm)
			}
		}
	}
	if tr == nil {
		return b.String()
	}

	fmt.Fprintf(&b, "trace: %s\n", tr.TraceID)
	for _, sp := range tr.SpanTree() {
		renderSpan(&b, sp, 1)
	}
	st := traceCounters(tr)
	fmt.Fprintf(&b, "counters: tuples=%d live_nodes=%d peak_nodes=%d collected=%d\n",
		st.Tuples, st.LiveNodes, st.PeakNodes, st.Collected)
	renderCostDelta(&b, qr, st)
	return b.String()
}

// renderSpan writes one span line — name, attributes, timings, counters —
// then recurses into its children.
func renderSpan(b *strings.Builder, sp *obs.Span, depth int) {
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), sp.Name)
	if len(sp.Attrs) > 0 {
		b.WriteString("[")
		for i, k := range sortedKeys(sp.Attrs) {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%s", k, sp.Attrs[k])
		}
		b.WriteString("]")
	}
	fmt.Fprintf(b, " %s", roundDuration(sp.Duration))
	if sp.CPUTime > 0 {
		fmt.Fprintf(b, " cpu=%s", roundDuration(sp.CPUTime))
	}
	if sp.AllocBytes > 0 {
		fmt.Fprintf(b, " alloc=%dB", sp.AllocBytes)
	}
	if c := sp.Counters; c != nil {
		fmt.Fprintf(b, " tuples=%d nodes=%d", c.Tuples, c.LiveNodes)
	}
	b.WriteString("\n")
	for _, child := range sp.Children {
		renderSpan(b, child, depth+1)
	}
}

// renderCostDelta reprices the chosen plan's cost formula with the measured
// counters and reports the estimate's error.
func renderCostDelta(b *strings.Builder, qr *QueryResult, st obs.TraceCounters) {
	if !qr.Plan.Prices.Enabled() {
		return
	}
	var est float64
	for _, a := range qr.Plan.Alternatives {
		if a.Chosen {
			est = a.Cost
		}
	}
	if est <= 0 {
		return
	}
	actual := ActualCost(qr.Plan, qr.Plan.Prices, st.Tuples, st.PeakNodes)
	fmt.Fprintf(b, "cost: estimated=%.4g actual=%.4g delta=%+.1f%%\n",
		est, actual, (actual-est)/est*100)
}

// traceCounters reads the trace's counter snapshot under its lock.
func traceCounters(tr *obs.QueryTrace) obs.TraceCounters {
	// Stats is written via AddStats under tr.mu; the trace is finished when
	// rendered, so a plain read is safe here.
	return tr.Stats
}

// roundDuration trims a duration to three significant figures so reports
// stay readable without hiding the magnitude.
func roundDuration(d time.Duration) time.Duration {
	scale := time.Nanosecond
	for m := d; m >= 1000; m /= 10 {
		scale *= 10
	}
	return d.Round(scale)
}

// sortedKeys returns the map's keys in sorted order for stable rendering.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
