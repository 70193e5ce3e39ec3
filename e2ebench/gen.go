package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// Input generation follows the paper's Table 3 (Kline & Snodgrass §6) with
// the benchmark's own code, so no change to the program can change the
// inputs: a lifespan of one million instants, start times drawn uniformly,
// short-lived tuples of 1 to 1000 instants, long-lived tuples of 20% to 80%
// of the lifespan, tuples running past the lifespan redrawn, and
// salary-like values.
const (
	lifespan   int64 = 1_000_000
	shortMax   int64 = 1000
	longMin          = lifespan / 5
	longMax          = lifespan * 4 / 5
	valueMin   int64 = 20_000
	valueRange int64 = 80_001
)

// departments is the small name set the file relations draw from, so that
// GROUP BY Name yields a handful of groups and Name predicates select a
// fraction of the relation.
var departments = func() []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = fmt.Sprintf("dep%02d", i)
	}
	return out
}()

// relSpec describes one generated relation.
type relSpec struct {
	tuples  int
	longPct int
	// dupPct is the share of tuples that exactly repeat an earlier tuple,
	// which is what COUNT(DISTINCT ...) removes.
	dupPct int
	sorted bool
}

// genRelation draws a relation per spec from rng.
func genRelation(rng *rand.Rand, spec relSpec) []tuple.Tuple {
	ts := make([]tuple.Tuple, 0, spec.tuples)
	dups := spec.tuples * spec.dupPct / 100
	fresh := spec.tuples - dups
	longLeft := fresh * spec.longPct / 100
	shortLeft := fresh - longLeft
	for longLeft+shortLeft > 0 {
		long := rng.Intn(longLeft+shortLeft) < longLeft
		var length int64
		if long {
			length = longMin + rng.Int63n(longMax-longMin+1)
		} else {
			length = 1 + rng.Int63n(shortMax)
		}
		start := rng.Int63n(lifespan)
		if start+length-1 >= lifespan {
			continue
		}
		if long {
			longLeft--
		} else {
			shortLeft--
		}
		ts = append(ts, tuple.MustNew(departments[rng.Intn(len(departments))],
			valueMin+rng.Int63n(valueRange), start, start+length-1))
	}
	for i := 0; i < dups; i++ {
		ts = append(ts, ts[rng.Intn(fresh)])
	}
	if dups > 0 {
		// Spread the copies through the relation.
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	if spec.sorted {
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	}
	return ts
}

// feedSpec describes one live-feed round: the tuples one INGEST connection
// sends into an empty live relation.
type feedSpec struct {
	tuples  int
	longPct int
	// foreverEvery makes every foreverEvery-th tuple (in generation order)
	// open-ended.
	foreverEvery int
	// maxDelay bounds how long after its start a tuple is recorded: the
	// arrival order is recording order, so the feed is retroactively
	// bounded (Jensen & Snodgrass; the paper's §6 k-ordered relations).
	maxDelay int64
}

// genFeed draws one round's tuples in arrival order.
func genFeed(rng *rand.Rand, spec feedSpec) []tuple.Tuple {
	type rec struct {
		at int64
		t  tuple.Tuple
	}
	recs := make([]rec, 0, spec.tuples)
	for len(recs) < spec.tuples {
		var length int64
		if rng.Intn(100) < spec.longPct {
			length = longMin + rng.Int63n(longMax-longMin+1)
		} else {
			length = 1 + rng.Int63n(shortMax)
		}
		start := rng.Int63n(lifespan)
		if start+length-1 >= lifespan {
			continue
		}
		end := start + length - 1
		if (len(recs)+1)%spec.foreverEvery == 0 {
			end = interval.Forever
		}
		recs = append(recs, rec{
			at: start + rng.Int63n(spec.maxDelay+1),
			t:  tuple.MustNew(departments[rng.Intn(len(departments))], valueMin+rng.Int63n(valueRange), start, end),
		})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	out := make([]tuple.Tuple, len(recs))
	for i, r := range recs {
		out[i] = r.t
	}
	return out
}

// logUniform returns a value in [lo, hi] spread evenly on a log scale by
// the fraction u in [0, 1).
func logUniform(lo, hi int64, u float64) int64 {
	return int64(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), u)))
}
