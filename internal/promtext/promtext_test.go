package promtext

import (
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestExpositionBytes pins the exact bytes of every writer call,
// including %v rendering of integers and preformatted floats and %q
// quoting of label values.
func TestExpositionBytes(t *testing.T) {
	var w Writer
	w.Gauge("x_ready", "1 while ready", 1)
	w.Counter("x_total", "things seen", uint64(42))
	w.Gauge("x_seconds", "elapsed", fmt.Sprintf("%.3f", 1.5))
	w.Header("x_hits_total", "counter", "hits by kind")
	w.Sample("x_hits_total", "kind", `we"ird`, fmt.Sprintf("%.6f", 0.25))
	w.GaugeByLabel("x_jobs", "jobs by state", "state", map[string]int{"queued": 0, "done": 3, "failed": 1})
	want := "# HELP x_ready 1 while ready\n# TYPE x_ready gauge\nx_ready 1\n" +
		"# HELP x_total things seen\n# TYPE x_total counter\nx_total 42\n" +
		"# HELP x_seconds elapsed\n# TYPE x_seconds gauge\nx_seconds 1.500\n" +
		"# HELP x_hits_total hits by kind\n# TYPE x_hits_total counter\n" +
		"x_hits_total{kind=\"we\\\"ird\"} 0.250000\n" +
		"# HELP x_jobs jobs by state\n# TYPE x_jobs gauge\n" +
		"x_jobs{state=\"done\"} 3\nx_jobs{state=\"failed\"} 1\nx_jobs{state=\"queued\"} 0\n"
	rec := httptest.NewRecorder()
	w.Serve(rec)
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if got := rec.Body.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
