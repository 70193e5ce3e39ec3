package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"tempagg/internal/tuple"
)

// feed: one connection sends INGEST lines, one tuple each, into an empty
// live relation; the tuples arrive in retroactively bounded order and one
// in a hundred is open-ended. The other connection issues SELECT ... LIVE
// reads paced by ingest progress — one read per feedStep acknowledged
// tuples, and never more than one read behind — so the relation's size at
// each read repeats from run to run. Most reads are narrow windows near the
// newest data or instants; every feedFullEvery-th read is over the whole
// history, whose reply is several MB. This puts writes beside reads on the
// live evaluator, and it is the large-reply path, where JSON encoding and
// the socket write dominate. Every read misses the result cache.
//
// A run is whole rounds, each a live relation fed from empty on a fresh
// daemon. Replies are checked between rounds, off the clock.
const (
	feedTuples     = 1 << 15
	feedStep       = 256
	feedFullEvery  = 8
	feedWarmTuples = 2048
)

// Every live read selects COUNT(Name) first, whose mass identifies the
// ingest prefix the reply was computed over, and one of these beside it.
var feedSecond = [4]aggKind{aggSum, aggMax, aggAvg, aggMin}

type feed struct {
	seed    int64
	rounds  int
	acks    map[string]int // distinct INGEST replies and their counts
	checked int
	failed  int
}

// feedRound is one relation fed from empty and the reads taken beside it.
type feedRound struct {
	name    string
	tuples  []tuple.Tuple
	ingests []string
	reads   []feedRead
}

type feedRead struct {
	q           *querySpec
	acked, sent int
	line        []byte
	lat         time.Duration
}

func newFeed(seed int64) workload { return &feed{seed: seed, acks: map[string]int{}} }

func (w *feed) prepare(e *env) error { return nil }

func (w *feed) newRound(name string, stream int64, n int) *feedRound {
	r := &feedRound{name: name}
	r.tuples = genFeed(rngFor(w.seed, stream), feedSpec{tuples: n, longPct: 10, foreverEvery: 100, maxDelay: 5000})
	r.ingests = make([]string, n)
	for i, t := range r.tuples {
		end := "FOREVER"
		if t.Valid.End != forever {
			end = strconv.FormatInt(t.Valid.End, 10)
		}
		r.ingests[i] = fmt.Sprintf("INGEST %s %s %d %d %s", name, t.Name, t.Value, t.Valid.Start, end)
	}
	return r
}

// readSpec is the k-th read of a round (k from 1), taken once k·feedStep
// tuples are acknowledged.
func (r *feedRound) readSpec(k int) *querySpec {
	q := &querySpec{rel: r.name, live: true, aggs: []aggItem{{kind: aggCount}, {kind: feedSecond[k%4]}}}
	newest := r.tuples[k*feedStep-1].Valid.Start
	switch {
	case k%feedFullEvery == 0:
		q.aggs[1].kind = feedSecond[(k/feedFullEvery)%4]
	case k%4 == 2:
		q.at = &newest
	default:
		n := logUniform(lifespan/1000, lifespan/200, spread(k, 0.6180339887))
		q.window = &[2]int64{max(0, newest-n), newest}
	}
	return q
}

func (w *feed) warmup(d *daemon) error {
	r := w.newRound("feedwarm", 1, feedWarmTuples)
	if err := w.feedOn(d, r, &slice{}); err != nil {
		return err
	}
	w.checkRound(r)
	return nil
}

// measure runs whole rounds until the run's seconds are spent, each on a
// fresh daemon: the daemon cannot drop a live relation, and one daemon
// across rounds would grow with the number of rounds finished rather than
// with the work of a round. Start-up, stop and checks are off the clock.
func (w *feed) measure(first *daemon, e *env) (*tally, error) {
	retire(first)
	t := &tally{}
	var elapsed time.Duration
	for elapsed < time.Duration(e.seconds)*time.Second {
		r := w.newRound(fmt.Sprintf("feed%d", w.rounds), 10+int64(w.rounds), feedTuples)
		w.rounds++
		d, err := launch(e)
		if err != nil {
			return nil, err
		}
		err = w.timeRound(d, r, t)
		retire(d)
		if err != nil {
			return nil, err
		}
		elapsed += t.slices[len(t.slices)-1].elapsed
		w.checkRound(r)
	}
	return t, nil
}

// timeRound feeds one round as one slice of t.
func (w *feed) timeRound(d *daemon, r *feedRound, t *tally) error {
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	s := &slice{}
	start := time.Now()
	if err := w.feedOn(d, r, s); err != nil {
		return err
	}
	s.elapsed = time.Since(start)
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	s.cpu = cpu1 - cpu0
	t.slices = append(t.slices, s)
	rss, err := d.peakRSS()
	t.rss = append(t.rss, float64(rss)/(1<<20))
	return err
}

// feedOn feeds a round to d over a fresh pair of connections.
func (w *feed) feedOn(d *daemon, r *feedRound, t *slice) error {
	ing, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer ing.close()
	rd, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer rd.close()
	return w.run(ing, rd, r, t)
}

// run feeds one round: the ingesting connection signals read k once
// k·feedStep tuples are acknowledged, after waiting for read k-1 to finish.
func (w *feed) run(ing, rd *conn, r *feedRound, t *slice) error {
	var sent, acked atomic.Int64
	reads := len(r.tuples) / feedStep
	r.reads = make([]feedRead, reads+1)
	next := make(chan int)
	finished := make(chan error)
	go func() {
		for k := range next {
			q := r.readSpec(k)
			lo := int(acked.Load())
			line, lat, err := rd.roundTrip(q.sql())
			hi := int(sent.Load())
			if err == nil {
				r.reads[k] = feedRead{q: q, acked: lo, sent: hi, line: append([]byte(nil), line...), lat: lat}
			}
			finished <- err
		}
	}()
	defer close(next)
	pending := false
	await := func() error {
		if !pending {
			return nil
		}
		pending = false
		return <-finished
	}
	for i, line := range r.ingests {
		if i > 0 && i%feedStep == 0 {
			if err := await(); err != nil {
				return err
			}
			next <- i / feedStep
			pending = true
		}
		sent.Add(1)
		ack, _, err := ing.roundTrip(line)
		if err != nil {
			_ = await()
			return err
		}
		acked.Add(1)
		w.acks[string(ack)]++
	}
	if err := await(); err != nil {
		return err
	}
	next <- reads
	pending = true
	if err := await(); err != nil {
		return err
	}
	t.ingests += float64(len(r.ingests))
	for _, read := range r.reads[1:] {
		t.selects++
		t.latencies = append(t.latencies, ms(read.lat))
		t.replyBytes += int64(len(read.line))
	}
	return nil
}

// checkRound checks a finished round's reads and drops its replies.
func (w *feed) checkRound(r *feedRound) {
	set := newTupleSet(r.tuples)
	reads := r.reads[1:]
	errs := checkEach(len(reads), func(i int) error {
		rd := reads[i]
		_, err := checkLive(rd.q, r.tuples, set, rd.acked, rd.sent, rd.line, rngFor(w.seed, int64(w.checked+i)))
		return err
	})
	w.failed += countFailures(errs, func(i int) string { return reads[i].q.sql() })
	w.checked += len(reads) + len(r.ingests)
	r.reads = nil
}

func (w *feed) check() (attempted, failed int) {
	var errs []error
	var lines []string
	for line, n := range w.acks {
		if err := checkAck([]byte(line)); err != nil {
			for i := 0; i < n; i++ {
				errs = append(errs, err)
				lines = append(lines, line)
			}
		}
	}
	return w.checked, w.failed + countFailures(errs, func(i int) string { return "INGEST reply " + lines[i] })
}
