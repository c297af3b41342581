package main

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"

	abft "stencilabft"
	"stencilabft/internal/telemetry"
)

// Observability sinks: the -trace file export and the -metrics live
// endpoint. Both read the same telemetry collector the protected run
// records into; the endpoint additionally snapshots the transport counters
// when the protector is a cluster.

// transportMetricser is the seam through which the live endpoint reaches a
// cluster's per-edge transport counters; both cluster deployments satisfy
// it, local protectors simply don't.
type transportMetricser interface {
	TransportMetrics() telemetry.TransportMetrics
}

// serveMetrics binds addr and serves the observability endpoints in the
// background for the rest of the process's life: Prometheus text at
// /metrics, expvar JSON at /debug/vars, and the pprof index under
// /debug/pprof/. The phase accumulators are atomic, so scraping mid-run is
// safe and reflects live progress.
func serveMetrics(addr string, tel *abft.Telemetry, prot abft.Protector[float32]) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics %s: %w", addr, err)
	}
	tm, _ := prot.(transportMetricser)

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := tel.WritePrometheus(w); err != nil {
			return
		}
		if tm != nil {
			tm.TransportMetrics().WritePrometheus(w)
		}
	})

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("metrics: serving Prometheus (/metrics), expvar (/debug/vars) and pprof (/debug/pprof/) on http://%s\n", ln.Addr())
	return ln, nil
}

// writeTraceFile exports the collector's span timeline as a Chrome
// trace-event JSON file.
func writeTraceFile(path string, tel *abft.Telemetry) error {
	err := writeFile(path, func(w io.Writer) error { return abft.WriteTrace(w, tel) })
	if err == nil {
		fmt.Printf("trace: wrote %s\n", path)
	}
	return err
}

// writeFile creates path and hands it to write, closing it either way.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
