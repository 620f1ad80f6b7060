package perf

import (
	"encoding/json"
	"net/http"
	netpprof "net/http/pprof"
)

// Handler serves the registry's current snapshot as indented JSON — the
// /metrics surface mounted by spearbench -debug-addr and speard. A nil
// registry serves an empty snapshot, so the endpoint is always safe to
// mount.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// MountPprof registers the net/http/pprof handlers under GET
// /debug/pprof/ on mux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
}
