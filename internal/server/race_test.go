package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"tempagg/internal/catalog"
)

// TestConcurrentDeclareAndQuery is a race-detector regression test: it
// drives declaration updates (the administration/ingest path) and query
// traffic against one shared catalog at the same time. Before Catalog
// guarded its entries map with an RWMutex, Declare's map write raced with
// the map reads in Query/Info/Entry/Names and `go test -race` failed here.
func TestConcurrentDeclareAndQuery(t *testing.T) {
	srv, addr := startServer(t)
	cat := srv.cat

	const queriers = 4
	const queriesEach = 20
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Administration side: keep re-declaring the relation's bounds and
	// listing names, as tempaggd's operator commands would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := cat.Declare("Employed", catalog.Entry{KBound: i % 7}); err != nil {
				t.Error(err)
				return
			}
			if len(cat.Names()) != 1 {
				t.Error("catalog lost its relation")
				return
			}
		}
	}()

	// Query side: concurrent clients over the wire, each resolving the
	// relation through the catalog on every request.
	var qwg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < queriesEach; i++ {
				if _, err := c.Query("SELECT COUNT(Name) FROM Employed"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	qwg.Wait()
	close(stop)
	wg.Wait()

	// The catalog must still be consistent and persistable.
	if _, err := cat.Entry("Employed"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTracedQueriesAndScrapes is the race-detector regression for
// the span tree: parallel sweep workers, one sweep per select-list
// aggregate, attach child spans from their own goroutines while HTTP scrapers read
// /metrics, /debug/traces (which serializes finished span trees), and
// /debug/queries. Span attachment happens under the trace lock at End();
// any unsynchronized touch of Span.Children, Attrs, or Counters fails this
// test under -race.
func TestConcurrentTracedQueriesAndScrapes(t *testing.T) {
	_, _, addr, admin := startObservedServer(t)

	queries := []string{
		// Forced two-worker sweep: per-worker scan spans from two goroutines.
		"EXPLAIN ANALYZE SELECT COUNT(Salary) FROM Employed USING SWEEP 2",
		// One parallel sweep per aggregate, each with its own worker spans.
		"SELECT COUNT(Salary), SUM(Salary), AVG(Salary) FROM Employed USING SWEEP 2",
		"EXPLAIN SELECT COUNT(Salary) FROM Employed",
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, ep := range []string{"/metrics", "/debug/traces", "/debug/queries"} {
		scrapers.Add(1)
		go func(url string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				var v any
				if resp.Header.Get("Content-Type") == "application/json" {
					// Decoding proves the trace serialization is complete,
					// not just non-racy.
					if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
						t.Errorf("GET %s: bad JSON: %v", url, err)
					}
				}
				resp.Body.Close()
			}
		}(admin.URL + ep)
	}

	const workers = 4
	const rounds = 15
	var qwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				for _, sql := range queries {
					resp, err := c.Query(sql)
					if err != nil || !resp.OK {
						t.Errorf("query %q: %+v, %v", sql, resp, err)
						return
					}
				}
			}
		}()
	}
	qwg.Wait()
	close(stop)
	scrapers.Wait()
}
