package query

import (
	"fmt"
	"strings"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
)

// Attr names a tuple attribute the language can reference.
type Attr int

const (
	// AttrName is the entity name (the paper's Name, 6 bytes).
	AttrName Attr = iota
	// AttrValue is the aggregated attribute (the paper's Salary).
	AttrValue
	// AttrStart is the valid-time start timestamp.
	AttrStart
	// AttrEnd is the valid-time end timestamp.
	AttrEnd
)

// String returns the canonical attribute name.
func (a Attr) String() string {
	switch a {
	case AttrName:
		return "Name"
	case AttrValue:
		return "Salary"
	case AttrStart:
		return "Start"
	case AttrEnd:
		return "Stop"
	}
	return fmt.Sprintf("Attr(%d)", int(a))
}

// parseAttr resolves an identifier to an attribute. Salary and Value are
// synonyms, as are Stop and End.
func parseAttr(name string) (Attr, error) {
	switch strings.ToLower(name) {
	case "name":
		return AttrName, nil
	case "salary", "value":
		return AttrValue, nil
	case "start":
		return AttrStart, nil
	case "stop", "end":
		return AttrEnd, nil
	}
	return 0, fmt.Errorf("query: unknown attribute %q", name)
}

// CompareOp is a WHERE comparison operator.
type CompareOp string

// Condition is one WHERE conjunct: attr op literal.
type Condition struct {
	Attr Attr
	Op   CompareOp
	// Str is set for string literals (AttrName comparisons).
	Str string
	// Num is set for numeric literals.
	Num int64
	// IsStr distinguishes the two literal kinds.
	IsStr bool
}

// TemporalGrouping selects how the time-line is partitioned (§2).
type TemporalGrouping int

const (
	// ByInstant partitions by instant — the TSQL2 default; results are
	// constant intervals.
	ByInstant TemporalGrouping = iota
	// BySpan partitions into fixed-length spans.
	BySpan
)

// AggSpec is one aggregate item of the select list.
type AggSpec struct {
	// Kind is the aggregate function.
	Kind aggregate.Kind
	// Distinct requests duplicate elimination before aggregation — exact
	// duplicate tuples are removed first, the paper's §7 treatment.
	Distinct bool
	// Attr is the aggregated attribute (inside the parentheses).
	Attr Attr
}

// String renders the select-list item.
func (a AggSpec) String() string {
	distinct := ""
	if a.Distinct {
		distinct = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Kind, distinct, a.Attr)
}

// ExplainMode selects the EXPLAIN behaviour of a query.
type ExplainMode int

const (
	// ExplainNone executes normally.
	ExplainNone ExplainMode = iota
	// ExplainPlan renders the plan tree — the chosen strategy plus every
	// alternative the planner priced — without executing the query.
	ExplainPlan
	// ExplainAnalyze executes the query (its aggregate rows are identical
	// to the plain query's, bit for bit) and appends the measured trace
	// report: per-stage spans with §6 counters, worker skew, and the
	// estimated-vs-actual cost delta.
	ExplainAnalyze
)

// Query is the parsed form of a temporal aggregate query.
type Query struct {
	// Explain, when not ExplainNone, turns the query into an EXPLAIN
	// [ANALYZE] statement; see ExplainMode.
	Explain ExplainMode
	// Aggs are the select list's aggregates, in order; never empty. Many
	// scalar aggregates in one query are computed separately, per §3.
	Aggs []AggSpec
	// Window, when set, restricts the query to tuples overlapping this
	// interval and clips the result to it (TSQL2's valid clause; §6.3's
	// "only interested in the results for a single year").
	Window *interval.Interval
	// At, when set, asks for the snapshot value at a single instant: the
	// aggregate over the tuples valid then, evaluated directly without the
	// constant-interval machinery (snapshot reduction of the temporal
	// aggregate). Mutually exclusive with Window and span grouping.
	At *interval.Time
	// Relation is the FROM target.
	Relation string
	// Live marks a snapshot read against a catalog-registered live
	// relation (SELECT ... FROM rel LIVE): the query evaluates against one
	// consistent epoch of the relation's shared LiveEvaluator while
	// ingestion proceeds. Live queries support the plain aggregate list,
	// AT, and VALID OVERLAPS; filtering, grouping, DISTINCT, USING, and
	// EXPLAIN are rejected by check.
	Live bool
	// GroupAttr, when set, requests attribute grouping (e.g. GROUP BY Name).
	GroupAttr *Attr
	// Where holds the conjunctive filter conditions.
	Where []Condition
	// Temporal selects instant or span grouping.
	Temporal TemporalGrouping
	// Span is the span length when Temporal == BySpan.
	Span interval.Time
	// Using optionally forces an algorithm, bypassing the optimizer.
	Using string
	// UsingK is the numeric argument of the USING clause: KTREE's k or
	// PARTITIONED's partition count.
	UsingK int
	// HasUsingK records whether a K argument was given.
	HasUsingK bool
}

// String reconstructs a canonical form of the query.
func (q *Query) String() string {
	var b strings.Builder
	switch q.Explain {
	case ExplainPlan:
		b.WriteString("EXPLAIN ")
	case ExplainAnalyze:
		b.WriteString("EXPLAIN ANALYZE ")
	}
	b.WriteString("SELECT ")
	if q.GroupAttr != nil {
		fmt.Fprintf(&b, "%s, ", *q.GroupAttr)
	}
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	fmt.Fprintf(&b, " FROM %s", q.Relation)
	if q.Live {
		b.WriteString(" LIVE")
	}
	if q.Window != nil {
		end := "FOREVER"
		if q.Window.End != interval.Forever {
			end = fmt.Sprintf("%d", q.Window.End)
		}
		fmt.Fprintf(&b, " VALID OVERLAPS %d %s", q.Window.Start, end)
	}
	if q.At != nil {
		fmt.Fprintf(&b, " AT %d", *q.At)
	}
	for i, c := range q.Where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		if c.IsStr {
			fmt.Fprintf(&b, "%s %s '%s'", c.Attr, c.Op, c.Str)
		} else {
			fmt.Fprintf(&b, "%s %s %d", c.Attr, c.Op, c.Num)
		}
	}
	switch {
	case q.GroupAttr != nil && q.Temporal == BySpan:
		fmt.Fprintf(&b, " GROUP BY %s, SPAN %d", *q.GroupAttr, q.Span)
	case q.GroupAttr != nil:
		fmt.Fprintf(&b, " GROUP BY %s", *q.GroupAttr)
	case q.Temporal == BySpan:
		fmt.Fprintf(&b, " GROUP BY SPAN %d", q.Span)
	}
	if q.Using != "" {
		fmt.Fprintf(&b, " USING %s", strings.ToUpper(q.Using))
		if q.HasUsingK {
			fmt.Fprintf(&b, " %d", q.UsingK)
		}
	}
	return b.String()
}
