package core

import (
	"math/rand"
	"testing"

	"tempagg/internal/aggregate"
)

// randomPartial draws a structurally valid partial: empty, single-tuple
// (sum = min = max), or multi-tuple with min ≤ max.
func randomPartial(r *rand.Rand) IndexPartial {
	switch r.Intn(3) {
	case 0:
		return IndexPartial{}
	case 1:
		v := r.Int63n(2001) - 1000
		return IndexPartial{Count: 1, Sum: v, Min: v, Max: v}
	}
	var p IndexPartial
	for i, n := 0, 2+r.Intn(6); i < n; i++ {
		p.add(r.Int63n(2001) - 1000)
	}
	return p
}

// TestMergePartialsAlgebra pins the merge algebra the index relies on:
// zero identity, commutativity, and associativity.
func TestMergePartialsAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a, b, c := randomPartial(r), randomPartial(r), randomPartial(r)
		if MergePartials(a, IndexPartial{}) != a || MergePartials(IndexPartial{}, a) != a {
			t.Fatalf("zero is not the identity for %+v", a)
		}
		if MergePartials(a, b) != MergePartials(b, a) {
			t.Fatalf("merge not commutative: %+v, %+v", a, b)
		}
		if MergePartials(MergePartials(a, b), c) != MergePartials(a, MergePartials(b, c)) {
			t.Fatalf("merge not associative: %+v, %+v, %+v", a, b, c)
		}
	}
}

// TestPartialState checks reconstitution against direct aggregation: a
// partial built by absorbing values must denote, for every kind, the state
// reached by f.Add over the same values.
func TestPartialState(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		n := r.Intn(8)
		var p IndexPartial
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = r.Int63n(2001) - 1000
			p.add(vals[j])
		}
		for _, k := range aggregate.Kinds() {
			f := aggregate.For(k)
			want := f.Zero()
			for _, v := range vals {
				want = f.Add(want, v)
			}
			if got := p.State(f); !f.StateEqual(got, want) {
				t.Fatalf("%v over %v: reconstituted state differs", k, vals)
			}
		}
	}
}
