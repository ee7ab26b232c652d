// Package pprofserve wires the standard net/http/pprof and expvar
// handlers plus a live mrtext metrics snapshot onto one debug address,
// shared by the mrrun and mrbench CLIs (-pprof flag). The same address
// also serves /metrics, the Prometheus text exposition of the live
// operation totals, wait counters, and latency histograms.
package pprofserve

import (
	"expvar"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"sync"

	"mrtext/internal/metrics"
)

var publishOnce sync.Once

// Handler enables live metrics aggregation, publishes it as the
// "mrtext.metrics" expvar (visible at /debug/vars, in the metrics.Dump
// shape mrrun -metrics-json writes) and as the /metrics
// Prometheus text endpoint, and returns DefaultServeMux — which carries
// /debug/pprof, /debug/vars, and /metrics. Servers with their own mux
// (mrserve) mount this under /debug/ instead of running a second
// listener.
func Handler() http.Handler {
	metrics.EnableLive()
	publishOnce.Do(func() {
		expvar.Publish("mrtext.metrics", expvar.Func(func() any { return metrics.NewDump(metrics.LiveSnapshot()) }))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			//mrlint:ignore droppederr a failed exposition write means the scrape client went away; nothing to report
			_ = metrics.WritePrometheus(w)
		})
	})
	return http.DefaultServeMux
}

// Serve wires Handler's endpoints and serves them on addr in a background
// goroutine. A listen or serve failure is reported to onErr; Serve itself
// never blocks.
func Serve(addr string, onErr func(error)) {
	h := Handler()
	//mrlint:ignore goroleak debug server lives for the whole process; it has no shutdown path by design
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			onErr(err)
		}
	}()
}
