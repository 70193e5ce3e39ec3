package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SlowLog writes one structured JSON line per query whose end-to-end
// duration reaches the threshold. Each line is a slowEntry: the timestamp,
// duration, query text, chosen algorithm, the evaluator-counter snapshot,
// and the error if the query failed. A nil *SlowLog is the disabled state.
type SlowLog struct {
	threshold time.Duration

	mu sync.Mutex
	w  io.Writer
}

// NewSlowLog returns a slow-query log writing to w for queries at or over
// threshold. A non-positive threshold logs every query (useful in tests and
// when diagnosing a live system).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold}
}

// Threshold reports the configured slow-query threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// slowEntry is the wire form of one slow-query log line.
type slowEntry struct {
	Time      time.Time     `json:"time"`
	Duration  time.Duration `json:"duration_ns"`
	Query     string        `json:"query"`
	Algorithm string        `json:"algorithm,omitempty"`
	Plan      string        `json:"plan,omitempty"`
	Stats     TraceCounters `json:"stats"`
	Err       string        `json:"error,omitempty"`
}

// Record writes the log line for a finished trace if it is slow enough.
// It reports whether the trace crossed the threshold; when it did but the
// write failed, logged is still true and err carries the write failure —
// callers must not drop it (the errdrop analyzer enforces this).
func (l *SlowLog) Record(tr *QueryTrace) (logged bool, err error) {
	if l == nil || l.w == nil || tr == nil || tr.Duration < l.threshold {
		return false, nil
	}
	line, err := json.Marshal(slowEntry{
		Time:      tr.Start,
		Duration:  tr.Duration,
		Query:     tr.Query,
		Algorithm: tr.Algorithm,
		Plan:      tr.Plan,
		Stats:     tr.Stats,
		Err:       tr.Err,
	})
	if err != nil {
		return true, fmt.Errorf("obs: slow log: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(append(line, '\n')); err != nil {
		return true, fmt.Errorf("obs: slow log: %w", err)
	}
	return true, nil
}
