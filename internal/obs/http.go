package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the embeddable observability endpoint. It serves
//
//	/metrics        Prometheus text exposition of the registry
//	/progress       JSON Progress snapshot (see Snapshot)
//	/healthz        liveness: 200 "ok" while the process serves
//	/readyz         readiness: 503 while the owner reports not-ready
//	/debug/pprof/*  the standard runtime profiles
//
// on its own mux (net/http/pprof's DefaultServeMux side effects are not
// relied on), so several servers can coexist in one process.
type Server struct {
	ln  net.Listener
	srv *http.Server
	err chan error // the Serve goroutine's exit error, capacity 1
}

// Mux returns the standard observability mux over a registry — the
// handler Serve installs. Daemons that mount their own endpoints next to
// /metrics compose with it via ServeHandler.
func Mux(reg *Registry) *http.ServeMux { return MuxReady(reg, nil) }

// MuxReady is Mux with an explicit readiness probe: /healthz stays pure
// liveness (the process is up and serving), while /readyz answers 503
// whenever ready() reports false — a draining daemon flips it the moment
// Shutdown begins, so load balancers stop routing before the listener
// closes. A nil ready means always ready (the batch-CLI case).
func MuxReady(reg *Registry, ready func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Snapshot(reg))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ready != nil && !ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (e.g. "127.0.0.1:0", ":9090") and serves the registry
// until Close. It returns once the listener is bound, so Addr reports
// the resolved port immediately; a bind failure (port in use, bad
// address) is returned here, and a later accept-loop failure surfaces
// from Close instead of being swallowed.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeHandler(addr, Mux(reg))
}

// Without these one client that never finishes its request headers holds
// a goroutine and a socket for good. No write timeout on purpose:
// /debug/pprof/profile legitimately streams for 30 s.
const idleTimeout = 2 * time.Minute

var readHeaderTimeout = 10 * time.Second // a variable for its test only

// ServeHandler is Serve with a caller-supplied handler — typically the
// Mux plus the daemon's own endpoints.
func ServeHandler(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	s := &Server{ln: ln, srv: srv, err: make(chan error, 1)}
	go func() { s.err <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down gracefully: the listener stops accepting,
// in-flight scrapes (a half-written /metrics body, a slow /progress
// reader) get up to five seconds to finish, and only then are laggards
// cut off. It returns the accept loop's exit error — anything other than
// the orderly http.ErrServerClosed means the server died early (e.g. the
// listener was torn down underneath it) and callers should fail loudly.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := s.srv.Shutdown(ctx)
	if shutdownErr != nil {
		// Drain deadline hit: force-close the stragglers.
		_ = s.srv.Close()
	}
	serveErr := <-s.err
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	if serveErr != nil {
		return serveErr
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}
