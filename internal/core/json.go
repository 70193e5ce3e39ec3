package core

import (
	"math"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/jsonenc"
)

// MarshalJSON encodes the result as
//
//	{"aggregate":"COUNT","rows":[{"start":0,"end":"6","value":0,"tuples":0},...]}
//
// with "forever" as the end of an open-ended row and a null value for empty
// groups under non-COUNT aggregates.
func (r *Result) MarshalJSON() ([]byte, error) {
	var e jsonenc.Encoder
	r.EncodeJSON(&e)
	return e.Buf, e.Err()
}

// EncodeJSON appends the MarshalJSON form of r to e, offering e a chunk
// boundary after every row.
func (r *Result) EncodeJSON(e *jsonenc.Encoder) {
	e.Raw(`{"aggregate":`)
	e.String(r.Func.Kind().String())
	e.Raw(`,"rows":[`)
	for i, row := range r.Rows {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw(`{"start":`)
		e.Int(row.Interval.Start)
		if row.Interval.End == interval.Forever {
			e.Raw(`,"end":"forever","value":`)
		} else {
			e.Raw(`,"end":"`)
			e.Int(row.Interval.End)
			e.Raw(`","value":`)
		}
		encodeValue(e, r.Value(i))
		e.Raw(`,"tuples":`)
		e.Int(row.State.Count())
		e.Raw("}")
		e.Chunk()
	}
	e.Raw("]}")
}

// maxExactInt bounds the integers a float64 holds exactly; within it the
// shortest float digits of an integral value are its integer digits.
const maxExactInt = 1 << 53

// encodeValue writes v as encoding/json writes its Float: integral values
// through the integer formatter, the rest (AVG fractions, -0, integers past
// 2^53) through the float formatter.
func encodeValue(e *jsonenc.Encoder, v aggregate.Value) {
	switch {
	case v.Null:
		e.Raw("null")
	case math.Float64bits(v.Float) == math.Float64bits(float64(v.Int)) && -maxExactInt <= v.Int && v.Int <= maxExactInt:
		e.Int(v.Int)
	default:
		e.Float(v.Float)
	}
}
