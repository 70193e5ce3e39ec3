package query

import (
	"tempagg/internal/core"
	"tempagg/internal/jsonenc"
)

// MarshalJSON encodes the query outcome with the canonical query text, the
// chosen plan, one result per group and select-list aggregate, and — for
// EXPLAIN [ANALYZE] statements — the rendered report:
//
//	{"query":...,"plan":...,"groups":[{"key":...,"results":[...]}],"explain":...}
//
// "groups" is null when there are none; an ungrouped group has no "key".
func (qr *QueryResult) MarshalJSON() ([]byte, error) {
	var e jsonenc.Encoder
	qr.EncodeJSON(&e)
	return e.Buf, e.Err()
}

// EncodeJSON appends the MarshalJSON form of qr to e.
func (qr *QueryResult) EncodeJSON(e *jsonenc.Encoder) {
	e.Raw(`{"query":`)
	e.String(qr.Query.String())
	e.Raw(`,"plan":`)
	e.String(qr.Plan.String())
	e.Raw(`,"groups":`)
	if len(qr.Groups) == 0 {
		e.Raw("null")
	} else {
		e.Raw("[")
		for i, g := range qr.Groups {
			if i > 0 {
				e.Raw(",")
			}
			e.Raw("{")
			if g.Key != "" {
				e.Raw(`"key":`)
				e.String(g.Key)
				e.Raw(",")
			}
			e.Raw(`"results":`)
			encodeResults(e, g.Results)
			e.Raw("}")
		}
		e.Raw("]")
	}
	if qr.Explain != "" {
		e.Raw(`,"explain":`)
		e.String(qr.Explain)
	}
	e.Raw("}")
}

func encodeResults(e *jsonenc.Encoder, rs []*core.Result) {
	if rs == nil {
		e.Raw("null")
		return
	}
	e.Raw("[")
	for i, r := range rs {
		if i > 0 {
			e.Raw(",")
		}
		if r == nil {
			e.Raw("null")
		} else {
			r.EncodeJSON(e)
		}
	}
	e.Raw("]")
}
