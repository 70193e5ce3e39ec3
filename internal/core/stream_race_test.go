package core

import (
	"io"
	"strings"
	"sync"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
)

// TestStreamingMergeConcurrentScrape is the -race regression for the
// partitioned stream: shards evaluate and emit one after another while a
// scrape goroutine renders the metrics registry — the same surface the
// daemon's /metrics handler reads mid-query. It extends the
// TestStatsConcurrentSnapshot pattern from the single evaluator to the
// partitioned evaluation: every per-partition evaluator publishes through
// the shared sink as it finishes, so a data race anywhere on the publish or
// snapshot path surfaces here under -race.
func TestStreamingMergeConcurrentScrape(t *testing.T) {
	f := aggregate.For(aggregate.Sum)
	ts := raceTuples(4000)
	m := obs.NewMetrics(obs.NewRegistry())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Render the full exposition, as the /metrics handler would.
			if err := m.Registry().WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	for round := 0; round < 3; round++ {
		got := &Result{Func: f}
		stats, err := EvaluatePartitionedStream(f, ts, PartitionOptions{
			Boundaries: []interval.Time{500, 1000, 1500, 2000, 2500, 3000, 3500},
			Sink:       m,
		}, func(chunk StreamChunk) error {
			got.Rows = append(got.Rows, chunk.Rows...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Tuples != len(ts) {
			t.Fatalf("round %d: stats.Tuples = %d, want %d", round, stats.Tuples, len(ts))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()

	// The scrape saw the arena counters move: every partition tree released
	// its slabs through the shared sink.
	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, metric := range []string{obs.MetricArenaSlabs, obs.MetricTuplesProcessed} {
		if !strings.Contains(out, metric) {
			t.Errorf("exposition missing %s after streamed runs", metric)
		}
	}
}
