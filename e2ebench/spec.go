package main

import (
	"fmt"
	"strings"
)

// The benchmark builds every query from a querySpec and renders the SQL
// from it, so the checker reads the query's meaning from the spec, never
// from the program's parser.

// aggKind is an aggregate function of the select list.
type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggNames = [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

func (k aggKind) String() string { return aggNames[k] }

// aggItem is one select-list aggregate.
type aggItem struct {
	kind     aggKind
	distinct bool
}

// condAttr is the attribute a WHERE conjunct tests.
type condAttr int

const (
	attrName condAttr = iota
	attrSalary
)

// cond is one WHERE conjunct: attr op literal.
type cond struct {
	attr condAttr
	op   string // =, <>, <, <=, >, >=
	str  string
	num  int64
}

// holds reports whether the conjunct accepts a tuple with this name and
// value.
func (c cond) holds(name string, value int64) bool {
	var sign int
	if c.attr == attrName {
		sign = strings.Compare(name, c.str)
	} else {
		switch {
		case value < c.num:
			sign = -1
		case value > c.num:
			sign = 1
		}
	}
	switch c.op {
	case "=":
		return sign == 0
	case "<>":
		return sign != 0
	case "<":
		return sign < 0
	case "<=":
		return sign <= 0
	case ">":
		return sign > 0
	case ">=":
		return sign >= 0
	}
	return false
}

// passes reports whether a tuple with this name and value satisfies every
// WHERE conjunct.
func (q *querySpec) passes(name string, value int64) bool {
	for _, c := range q.where {
		if !c.holds(name, value) {
			return false
		}
	}
	return true
}

// querySpec is one SELECT.
type querySpec struct {
	rel     string
	aggs    []aggItem
	live    bool
	groupBy bool // GROUP BY Name
	where   []cond
	// Exactly one of window and at, or neither for the whole time-line.
	window *[2]int64
	at     *int64
}

// sql renders the query in the program's query language.
func (q *querySpec) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.groupBy {
		b.WriteString("Name, ")
	}
	for i, a := range q.aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		attr := "Salary"
		if a.kind == aggCount {
			attr = "Name"
		}
		distinct := ""
		if a.distinct {
			distinct = "DISTINCT "
		}
		fmt.Fprintf(&b, "%s(%s%s)", a.kind, distinct, attr)
	}
	fmt.Fprintf(&b, " FROM %s", q.rel)
	if q.live {
		b.WriteString(" LIVE")
	}
	if q.window != nil {
		fmt.Fprintf(&b, " VALID OVERLAPS %d %d", q.window[0], q.window[1])
	}
	if q.at != nil {
		fmt.Fprintf(&b, " AT %d", *q.at)
	}
	for i, c := range q.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		if c.attr == attrName {
			fmt.Fprintf(&b, "Name %s '%s'", c.op, c.str)
		} else {
			fmt.Fprintf(&b, "Salary %s %d", c.op, c.num)
		}
	}
	if q.groupBy {
		b.WriteString(" GROUP BY Name")
	}
	return b.String()
}

// rangeOf is the part of the time-line the answer must partition: the
// window, the instant, or [0, ∞].
func (q *querySpec) rangeOf() (lo, hi int64) {
	switch {
	case q.window != nil:
		return q.window[0], q.window[1]
	case q.at != nil:
		return *q.at, *q.at
	}
	return 0, forever
}
