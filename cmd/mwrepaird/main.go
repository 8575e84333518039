// Command mwrepaird is the repair-as-a-service daemon: a long-running
// HTTP/JSON server that accepts repair jobs (a registry scenario name, or
// a serialized TinyLang program plus test suite), runs them on a bounded
// worker fleet with priority admission, and serves status, progress and
// patches — the service form of the one-shot cmd/mwrepair pipeline.
//
// Usage:
//
//	mwrepaird [-addr 127.0.0.1:8080] [-jobs 2] [-queue 16]
//	          [-drain 10s] [-trace-dir traces/] [-addr-file path]
//	          [-debug-addr localhost:6060] [-store data/]
//
// API:
//
//	POST   /v1/jobs            submit a job          (202; 429 when full)
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       status + progress
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/jobs/{id}/patch fetch the patch
//	GET    /v1/scenarios       scenario registry
//	GET    /healthz            liveness (503 while draining)
//	GET    /debug/metrics      metrics snapshot
//
// A job with the same scenario/seed/config as a cmd/mwrepair invocation
// produces a byte-identical patch and (with "trace": true and -trace-dir)
// a byte-identical JSONL trace. SIGINT/SIGTERM drains gracefully: stop
// admitting, let running jobs finish within -drain (then cancel them for
// best-so-far partial results), flush every trace sink, exit 0.
//
// With -store, the daemon opens one persistent evaluation store in the
// given data directory and shares it across every job: repeated
// scenarios warm-start from earlier jobs' verdicts (results stay
// byte-identical, just cheaper), and the store survives restarts —
// /healthz and /debug/metrics report its state under "store" /
// "server.store.*". The store is flushed and synced at drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
		jobs     = flag.Int("jobs", 2, "concurrent repair-job workers")
		queue    = flag.Int("queue", 16, "admission queue depth (429 beyond it)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for running jobs")
		traceDir = flag.String("trace-dir", "", "write per-job JSONL traces to this directory")
		addrFile = flag.String("addr-file", "", "write the bound address to this file (for scripts using :0)")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof + /debug/metrics on this extra address")
		storeDir = flag.String("store", "", "persistent evaluation-store data directory shared across jobs")
	)
	flag.Parse()
	cliutil.Positive("mwrepaird", "jobs", *jobs)
	cliutil.Positive("mwrepaird", "queue", *queue)
	cliutil.NonNegativeDuration("mwrepaird", "drain", *drain)

	logger := log.New(os.Stderr, "mwrepaird: ", log.LstdFlags|log.Lmicroseconds)

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			logger.Fatalf("-trace-dir: %v", err)
		}
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(store.Options{Dir: *storeDir}); err != nil {
			logger.Fatalf("-store: %v", err)
		}
		ss := st.Stats()
		logger.Printf("store %s: %d eval records, %d pack(s)", *storeDir, ss.EvalRecords, ss.Packs)
	}

	reg := obs.NewRegistry()
	mgr := server.NewManager(server.Config{
		Workers:      *jobs,
		QueueDepth:   *queue,
		TraceDir:     *traceDir,
		DrainTimeout: *drain,
		Registry:     reg,
		Store:        st,
		Logf:         logger.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Fatalf("-addr-file: %v", err)
		}
	}

	var stopDebug func() error
	if *debug != "" {
		dAddr, stop, err := obs.StartDebugServer(*debug, reg)
		if err != nil {
			logger.Fatalf("-debug-addr: %v", err)
		}
		stopDebug = stop
		logger.Printf("debug server on http://%s/debug/pprof/", dAddr)
	}

	srv := &http.Server{
		Handler:           server.Handler(mgr),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("serve: %v", err)
		}
	}()
	logger.Printf("listening on http://%s (jobs=%d queue=%d)", bound, *jobs, *queue)
	fmt.Printf("mwrepaird: listening on http://%s\n", bound)

	// Block until SIGINT/SIGTERM, then drain: jobs first (HTTP stays up
	// so clients can watch the drain), then the HTTP server, then the
	// side-band debug server. A second signal kills immediately.
	ctx, stop := cliutil.SignalContext(context.Background())
	<-ctx.Done()
	stop()
	logger.Printf("signal received; draining (budget %v)", *drain)

	shCtx, cancel := context.WithTimeout(context.Background(), *drain+30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(shCtx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		_ = srv.Close()
	}
	if stopDebug != nil {
		if err := stopDebug(); err != nil {
			logger.Printf("debug shutdown: %v", err)
		}
	}
	// Jobs are drained; flush and sync the store so the next start
	// rebuilds its index from packs that hold every verdict.
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Printf("store close: %v", err)
		}
	}
	logger.Printf("drained; exiting")
}
