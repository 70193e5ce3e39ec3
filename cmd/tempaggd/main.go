// Command tempaggd serves a catalog of temporal relations over TCP with a
// line protocol (one query in, one JSON reply out), and doubles as a client.
//
// Usage:
//
//	tempaggd -db ./relations -listen 127.0.0.1:7411       # server
//	tempaggd -db ./relations -listen 127.0.0.1:7411 \
//	         -http 127.0.0.1:7412 -slow-query 250ms       # + admin surface
//	tempaggd -connect 127.0.0.1:7411 -query "SELECT ..."  # one-shot client
//
// With -http the daemon exposes /metrics (Prometheus text format),
// /debug/traces (the last -traces query traces as JSON, span trees
// included), /debug/queries (rolling per-stage latency window: histogram
// quantiles, exemplar trace IDs, and a burn-rate-ranked slow-stage view),
// and the standard /debug/pprof/* profiling endpoints. Queries slower than
// -slow-query are logged to stderr as one JSON line each; 0 disables the
// slow-query log. EXPLAIN and EXPLAIN ANALYZE statements work over the
// wire: the reply's "explain" field carries the rendered report.
//
// See internal/server for the protocol and README.md for the metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tempagg/internal/catalog"
	"tempagg/internal/core"
	"tempagg/internal/obs"
	"tempagg/internal/server"
)

func main() {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "tempaggd:", err)
		os.Exit(1)
	}
}

// serveConfig is the server-mode configuration from flags.
type serveConfig struct {
	db          string
	listen      string
	httpAddr    string
	slowQuery   time.Duration
	traces      int
	rangeIndex  bool
	resultCache int
}

func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("tempaggd", flag.ContinueOnError)
	var (
		db       = fs.String("db", "", "catalog directory to serve")
		listen   = fs.String("listen", "", "address to listen on, e.g. 127.0.0.1:7411")
		httpAddr = fs.String("http", "", "admin HTTP address for /metrics, /debug/traces, /debug/queries, /debug/pprof")
		slow     = fs.Duration("slow-query", 0, "log queries slower than this to stderr (0 disables)")
		traces   = fs.Int("traces", 128, "query traces kept for /debug/traces")
		connect  = fs.String("connect", "", "server address to query as a client")
		sql      = fs.String("query", "", "query to send in client mode")
		rangeIdx = fs.Bool("range-index", true, "serve eligible range queries from resident interval indexes")
		resCache = fs.Int("result-cache", core.DefaultResultCacheCapacity, "result-cache entries (0 = default capacity, negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *listen != "" && *connect != "":
		return fmt.Errorf("-listen and -connect are mutually exclusive")
	case *listen != "":
		if *db == "" {
			return fmt.Errorf("-db is required with -listen")
		}
		cfg := serveConfig{db: *db, listen: *listen, httpAddr: *httpAddr,
			slowQuery: *slow, traces: *traces,
			rangeIndex: *rangeIdx, resultCache: *resCache}
		return serve(cfg, out, nil, stop)
	case *connect != "":
		if *sql == "" {
			return fmt.Errorf("-query is required with -connect")
		}
		c, err := server.Dial(*connect)
		if err != nil {
			return err
		}
		defer c.Close()
		raw, err := c.QueryRaw(*sql)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", raw)
		return nil
	}
	return fmt.Errorf("one of -listen or -connect is required")
}

// serve runs server mode until stop closes. ready, when non-nil, receives
// the bound query and admin addresses once both listeners are up (admin is
// empty when -http is off) — the smoke test uses it to find its ports.
func serve(cfg serveConfig, out io.Writer, ready func(queryAddr, adminAddr string), stop <-chan struct{}) error {
	cat, err := catalog.Open(cfg.db)
	if err != nil {
		return err
	}
	var slowLog *obs.SlowLog
	if cfg.slowQuery > 0 {
		slowLog = obs.NewSlowLog(os.Stderr, cfg.slowQuery)
	}
	o := obs.NewObserver(cfg.traces, slowLog)
	if cfg.slowQuery > 0 {
		// One threshold for both slow surfaces: a query that lands in the
		// stderr slow log also burns budget in the /debug/queries window.
		o.Queries = obs.NewQueryStats(obs.QueryStatsConfig{SlowThreshold: cfg.slowQuery})
	}
	// Live relations publish epoch/seal/reader gauges into the same
	// registry the /metrics endpoint serves.
	cat.SetLiveMetrics(o.Metrics)
	// Range-query acceleration (S37): resident interval indexes and the
	// versioned result cache, both on by default.
	if cfg.rangeIndex {
		cat.EnableRangeIndex()
	}
	if cfg.resultCache >= 0 {
		cat.EnableResultCache(cfg.resultCache)
	}
	defer cat.Close()
	srv := server.New(cat, server.WithObserver(o))

	lis, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving %d relations on %s\n", len(cat.Names()), lis.Addr())

	adminAddr := ""
	var admin *http.Server
	adminErr := make(chan error, 1)
	if cfg.httpAddr != "" {
		alis, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			lis.Close()
			return err
		}
		adminAddr = alis.Addr().String()
		admin = &http.Server{Handler: server.AdminMux(o)}
		go func() {
			if err := admin.Serve(alis); !errors.Is(err, http.ErrServerClosed) {
				adminErr <- err
				return
			}
			adminErr <- nil
		}()
		fmt.Fprintf(out, "admin http on %s (/metrics, /debug/traces, /debug/queries, /debug/pprof)\n", adminAddr)
	}
	if ready != nil {
		ready(lis.Addr().String(), adminAddr)
	}

	stopErr := make(chan error, 1)
	go func() {
		<-stop
		var cerr error
		if admin != nil {
			cerr = admin.Close()
		}
		if serr := srv.Close(); cerr == nil {
			cerr = serr
		}
		stopErr <- cerr
	}()
	err = srv.Serve(lis)
	if admin != nil {
		if aerr := <-adminErr; err == nil {
			err = aerr
		}
	}
	select {
	case <-stop:
		// Shutdown path: the stop goroutine owns the Close errors.
		if cerr := <-stopErr; err == nil {
			err = cerr
		}
	default:
	}
	return err
}
