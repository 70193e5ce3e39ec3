// Fixture for errdrop over the observability surface: SlowLog.Record and
// Registry.WritePrometheus both report write failures that vanish silently
// if dropped — a metrics endpoint that "works" while losing scrapes is
// worse than none.
package fixture

import (
	"io"
	"os"

	"tempagg/internal/obs"
)

func slowLogErrors(sl *obs.SlowLog, tr *obs.QueryTrace) {
	sl.Record(tr)              // want `error result of \(obs\.SlowLog\)\.Record is discarded`
	logged, _ := sl.Record(tr) // want `error result of \(obs\.SlowLog\)\.Record is assigned to _`
	_ = logged
}

func registryErrors(r *obs.Registry, w io.Writer) {
	r.WritePrometheus(w)       // want `error result of \(obs\.Registry\)\.WritePrometheus is discarded`
	_ = r.WritePrometheus(w)   // want `error result of \(obs\.Registry\)\.WritePrometheus is assigned to _`
	go r.WritePrometheus(w)    // want `error result of \(obs\.Registry\)\.WritePrometheus is discarded by go`
	defer r.WritePrometheus(w) // want `error result of \(obs\.Registry\)\.WritePrometheus is discarded by defer`
}

func observabilityHandled(s obs.Sink, sl *obs.SlowLog, tr *obs.QueryTrace, r *obs.Registry) error {
	if logged, err := sl.Record(tr); logged && err != nil {
		return err
	}
	if err := r.WritePrometheus(os.Stderr); err != nil {
		return err
	}
	s.Record("linked-list", obs.EvalCounters{Tuples: 1}) // ok: the sink has no error results
	return nil
}
