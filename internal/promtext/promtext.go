// Package promtext writes the Prometheus text exposition format
// (version 0.0.4): the metric families of the daemon's and the fleet
// coordinator's /metrics endpoints.
package promtext

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Writer accumulates one exposition. Values are printed with %v, so a
// caller that wants a fixed precision passes a preformatted string.
type Writer struct{ b strings.Builder }

// Gauge writes an unlabelled gauge with its HELP and TYPE lines.
func (w *Writer) Gauge(name, help string, v any) { w.single(name, "gauge", help, v) }

// Counter writes an unlabelled counter with its HELP and TYPE lines.
func (w *Writer) Counter(name, help string, v any) { w.single(name, "counter", help, v) }

func (w *Writer) single(name, kind, help string, v any) {
	w.Header(name, kind, help)
	fmt.Fprintf(&w.b, "%s %v\n", name, v)
}

// Header opens a labelled family: its HELP and TYPE lines. Samples
// follow through Sample.
func (w *Writer) Header(name, kind, help string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Sample writes one sample of a family with a single label.
func (w *Writer) Sample(name, label, value string, v any) {
	fmt.Fprintf(&w.b, "%s{%s=%q} %v\n", name, label, value, v)
}

// GaugeByLabel writes a gauge family with one sample per key of
// values, in sorted key order.
func (w *Writer) GaugeByLabel(name, help, label string, values map[string]int) {
	w.Header(name, "gauge", help)
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.Sample(name, label, k, values[k])
	}
}

// Serve writes the exposition as an HTTP response.
func (w *Writer) Serve(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(rw, w.b.String())
}
