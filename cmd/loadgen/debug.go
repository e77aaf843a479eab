package main

// The -debug-addr introspection server: the standard net/http/pprof
// pages for live profiling of long runs (how a parallelism claim is
// checked on real cores) plus /debug/census, an expvar-style JSON
// rollup of the run's census so far — the seed of meshd's streaming API.
// The server lives for the rest of the process; profile a run by
// starting it with a long measurement window and pointing `go tool
// pprof` at the printed address.

import (
	"encoding/json"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"ndmesh/internal/probe"
)

// newDebugMux builds the introspection mux: /debug/pprof/* and
// /debug/census.
func newDebugMux(snap *probe.Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/census", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap.State())
	})
	return mux
}

// startDebugServer binds addr (":0" picks a free port — the bound
// address is printed to stderr) and serves the introspection mux for the
// life of the process.
func startDebugServer(addr string, snap *probe.Snapshot) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("debug server listening on http://%s/debug/pprof/", ln.Addr())
	go func() {
		_ = http.Serve(ln, newDebugMux(snap))
	}()
	return nil
}
