// Race/linearizability stress for the catalog's live-relation surface: N
// goroutines ingest through LiveIngest while M readers run SELECT ... LIVE
// through the observed query path, concurrently with HTTP scrapes of
// /metrics and /debug/queries over server.AdminMux — the full S36 stack
// under -race. External test package so the server import does not cycle.
package catalog_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/catalog"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/server"
	"tempagg/internal/tuple"
)

func TestLiveRaceIngestQueryScrape(t *testing.T) {
	const (
		writers         = 3
		readers         = 3
		tuplesPerWriter = 150
	)
	cat, err := catalog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(64, nil)
	o.Queries = obs.NewQueryStats(obs.QueryStatsConfig{})
	cat.SetLiveMetrics(o.Metrics)
	if _, err := cat.RegisterLive("hot", core.LiveOptions{SegmentSize: 32}); err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(server.AdminMux(o))
	defer admin.Close()

	var writerWg, rest sync.WaitGroup
	var writersDone atomic.Bool
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < tuplesPerWriter; i++ {
				tu := tuple.MustNew("e", int64(w*1000+i), 0, 10)
				if err := cat.LiveIngest("hot", []tuple.Tuple{tu}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Readers: the LIVE query path end to end. COUNT at an instant every
	// tuple covers is the admitted-tuple count at the read's epoch, and
	// writers only add — so each reader's observed counts must be
	// monotone, a linearizability check on the whole catalog/query stack.
	for rd := 0; rd < readers; rd++ {
		rest.Add(1)
		go func(rd int) {
			defer rest.Done()
			var last int64 = -1
			for !writersDone.Load() {
				qr, err := cat.QueryObserved(
					"SELECT COUNT(Name) FROM hot LIVE AT 5", relation.ScanOptions{}, o)
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				v, ok := qr.Groups[0].Result.At(5)
				if !ok {
					t.Errorf("reader %d: no row at instant 5", rd)
					return
				}
				if v.Int < last {
					t.Errorf("reader %d: count went backwards: %d after %d", rd, v.Int, last)
					return
				}
				last = v.Int
			}
		}(rd)
	}

	// Scrapers: admin endpoints race the gauge hook and reader refcounts.
	for _, ep := range []string{"/metrics", "/debug/queries"} {
		rest.Add(1)
		go func(url string) {
			defer rest.Done()
			for !writersDone.Load() {
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
		}(admin.URL + ep)
	}

	writerWg.Wait()
	writersDone.Store(true)
	rest.Wait()

	// Every lease must have been returned, and the final epoch must hold
	// every writer's tuples.
	n, err := cat.LiveReaders("hot")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("outstanding snapshot leases after quiesce: %d", n)
	}
	snap, release, err := cat.AcquireLiveSnapshot("hot")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got, want := snap.Seq(), int64(writers*tuplesPerWriter); got != want {
		t.Fatalf("final seq %d, want %d", got, want)
	}
	v, err := snap.At(aggregate.For(aggregate.Count), 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != int64(writers*tuplesPerWriter) {
		t.Fatalf("final count %d, want %d", v.Int, writers*tuplesPerWriter)
	}
	if _, err := snap.Range(aggregate.For(aggregate.Sum), interval.MustNew(0, 10)); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRangeCacheRaceIngestQueryScrape is the S37 companion to the
// ingest/read stress above: readers issue range-restricted LIVE queries —
// the index-live-tail path over sealed-segment indexes, on a catalog with
// the result cache enabled — while writers ingest and scrapers hit the
// admin surface. Each reader checks two monotonicity invariants: the
// window count never goes backwards (no read may resurrect an older
// epoch's answer), and snapshot seqnos acquired between queries never
// decrease. LIVE reads bypass the result cache, so it must see no traffic.
func TestLiveRangeCacheRaceIngestQueryScrape(t *testing.T) {
	const (
		writers         = 3
		readers         = 3
		tuplesPerWriter = 120
	)
	cat, err := catalog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	o := obs.NewObserver(64, nil)
	o.Queries = obs.NewQueryStats(obs.QueryStatsConfig{})
	cat.SetLiveMetrics(o.Metrics)
	cat.EnableResultCache(64)
	if _, err := cat.RegisterLive("hot", core.LiveOptions{SegmentSize: 32}); err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(server.AdminMux(o))
	defer admin.Close()

	var writerWg, rest sync.WaitGroup
	var writersDone atomic.Bool
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < tuplesPerWriter; i++ {
				tu := tuple.MustNew("e", int64(w*1000+i), 0, 10)
				if err := cat.LiveIngest("hot", []tuple.Tuple{tu}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	queries := []string{
		"SELECT COUNT(Name) FROM hot LIVE VALID OVERLAPS 2 8",
		"SELECT COUNT(Name) FROM hot LIVE AT 5",
	}
	for rd := 0; rd < readers; rd++ {
		rest.Add(1)
		go func(rd int) {
			defer rest.Done()
			var lastCount, lastSeq int64 = -1, -1
			for i := 0; !writersDone.Load(); i++ {
				qr, err := cat.QueryObserved(queries[i%len(queries)], relation.ScanOptions{}, o)
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				v, ok := qr.Groups[0].Result.At(5)
				if !ok {
					t.Errorf("reader %d: no row at instant 5", rd)
					return
				}
				if v.Int < lastCount {
					t.Errorf("reader %d: count went backwards: %d after %d", rd, v.Int, lastCount)
					return
				}
				lastCount = v.Int
				snap, release, err := cat.AcquireLiveSnapshot("hot")
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				seq := snap.Seq()
				release()
				if seq < lastSeq {
					t.Errorf("reader %d: epoch went backwards: %d after %d", rd, seq, lastSeq)
					return
				}
				lastSeq = seq
			}
		}(rd)
	}

	for _, ep := range []string{"/metrics", "/debug/queries"} {
		rest.Add(1)
		go func(url string) {
			defer rest.Done()
			for !writersDone.Load() {
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
		}(admin.URL + ep)
	}

	writerWg.Wait()
	writersDone.Store(true)
	rest.Wait()

	// Quiesced: the final epoch holds every tuple, and no LIVE read went
	// through the result cache.
	if n, err := cat.LiveReaders("hot"); err != nil || n != 0 {
		t.Fatalf("outstanding snapshot leases after quiesce: %d (%v)", n, err)
	}
	for i := 0; i < 2; i++ {
		qr, err := cat.QueryObserved(queries[0], relation.ScanOptions{}, o)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := qr.Groups[0].Result.At(5)
		if !ok || v.Int != int64(writers*tuplesPerWriter) {
			t.Fatalf("final window count %d (ok=%v), want %d", v.Int, ok, writers*tuplesPerWriter)
		}
	}
	if stats := cat.ResultCacheStats(); stats.Hits+stats.Misses != 0 || stats.Entries != 0 {
		t.Fatalf("LIVE reads went through the result cache: %+v", stats)
	}
}

// TestLiveLeaseAccounting: acquire/release must move the reader count and
// gauge exactly, and release must be idempotent.
func TestLiveLeaseAccounting(t *testing.T) {
	cat, err := catalog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := obs.NewMetrics(reg)
	cat.SetLiveMetrics(m)
	if _, err := cat.RegisterLive("hot", core.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := cat.LiveIngest("hot", []tuple.Tuple{tuple.MustNew("a", 1, 0, 5)}); err != nil {
		t.Fatal(err)
	}
	_, rel1, err := cat.AcquireLiveSnapshot("hot")
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := cat.AcquireLiveSnapshot("hot")
	if err != nil {
		t.Fatal(err)
	}
	readers := func() int64 {
		t.Helper()
		n, err := cat.LiveReaders("hot")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := readers(); n != 2 {
		t.Fatalf("readers = %d, want 2", n)
	}
	rel1()
	rel1() // idempotent: must not double-decrement
	if n := readers(); n != 1 {
		t.Fatalf("readers after one release = %d, want 1", n)
	}
	rel2()
	if n := readers(); n != 0 {
		t.Fatalf("readers after both releases = %d, want 0", n)
	}
}

// TestLiveRegistry covers the registry edges: name collisions, EnsureLive
// idempotence, and DropLive semantics.
func TestLiveRegistry(t *testing.T) {
	dir := t.TempDir()
	cat, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := cat.RegisterLive("hot", core.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.RegisterLive("hot", core.LiveOptions{}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	got, err := cat.EnsureLive("hot", core.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatal("EnsureLive returned a different evaluator for an existing name")
	}
	if _, err := cat.EnsureLive("warm", core.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	names := cat.LiveNames()
	if len(names) != 2 || names[0] != "hot" || names[1] != "warm" {
		t.Fatalf("LiveNames = %v", names)
	}
	if err := cat.DropLive("warm"); err != nil {
		t.Fatal(err)
	}
	if err := cat.DropLive("warm"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if err := cat.LiveIngest("warm", nil); err == nil {
		t.Fatal("ingest into dropped relation succeeded")
	}
	// Dropping closed the evaluator: direct use fails too.
	if _, err := ev.Snapshot(); err != nil {
		t.Fatalf("surviving relation broken: %v", err)
	}
}
