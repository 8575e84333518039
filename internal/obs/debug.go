package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// debugDrainTimeout bounds how long StartDebugServer's stopper waits for
// in-flight scrapes to complete before falling back to an abortive close.
// Scrape handlers are cheap (a registry snapshot, an expvar dump), so two
// seconds is generous; pprof profile captures that outlive it are cut off
// rather than holding process shutdown hostage.
const debugDrainTimeout = 2 * time.Second

// debugReadHeaderTimeout closes a connection that has not sent its request
// headers in time. It must stay below debugDrainTimeout: Shutdown waits
// for a connection that was accepted but never sent a request (a dial the
// client transport opened and did not use) until net/http deems it idle,
// which takes 5 s, so without a shorter header deadline such a
// connection outlives the drain budget and the stopper fails.
const debugReadHeaderTimeout = time.Second

// MetricsHandler serves a point-in-time JSON snapshot of reg — the
// /debug/metrics endpoint of both the per-CLI debug server below and the
// repair daemon's main mux (internal/server).
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
}

// StartDebugServer serves the standard Go debugging surface on addr:
// net/http/pprof under /debug/pprof/, expvar under /debug/vars, and —
// when reg is non-nil — the registry snapshot as JSON under
// /debug/metrics. It binds immediately (so flag typos fail at startup,
// not on first scrape) and returns the bound address (useful when addr
// ends in ":0") plus a stopper that shuts the server down gracefully:
// the listener closes at once (no new scrapes), in-flight responses get
// debugDrainTimeout to complete, and only then is the connection set
// torn down. The stopper is idempotent — calling it twice is safe.
//
// The server is opt-in via each CLI's -debug-addr flag and never started
// otherwise: observability endpoints must not change the default process
// shape. It uses its own mux, not http.DefaultServeMux, so importing this
// package registers nothing globally beyond expvar's own init.
func StartDebugServer(addr string, reg *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if reg != nil {
		mux.Handle("/debug/metrics", MetricsHandler(reg))
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: debugReadHeaderTimeout}
	go func() { _ = srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), debugDrainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			// Drain budget exhausted (or the context machinery failed):
			// fall back to the abortive close so shutdown still completes.
			_ = srv.Close()
		}
		return err
	}
	return ln.Addr().String(), stop, nil
}
