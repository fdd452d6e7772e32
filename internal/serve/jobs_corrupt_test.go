package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// writeJobs renders records the way persist does, then lets the caller
// mangle the bytes before they land in dir/jobs.json.
func writeJobs(t *testing.T, dir string, recs []jobRecord, mangle func([]byte) []byte) {
	t.Helper()
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if mangle != nil {
		data = mangle(data)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func threeRecords() []jobRecord {
	return []jobRecord{
		{ID: "job-1", State: JobDone, CreatedUnix: 100, FinishedUnix: 110},
		{ID: "job-2", State: JobStopped, CreatedUnix: 120},
		{ID: "job-3", State: JobQueued, CreatedUnix: 130},
	}
}

// TestJobTableSalvagesCorruptTail is the crash-mid-write regression:
// jobs.json truncated inside its last record (the shape a non-atomic
// copy or disk fault produces) must not fail startup — the leading
// records load, the damage is counted, and the table keeps working.
func TestJobTableSalvagesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	writeJobs(t, dir, threeRecords(), func(data []byte) []byte {
		// Cut mid-way through the third record.
		cut := strings.LastIndex(string(data), `"job-3"`) + len(`"job-3"`) + 3
		return data[:cut]
	})
	tbl, err := openJobTable(dir, 1)
	if err != nil {
		t.Fatalf("truncated jobs.json failed startup: %v", err)
	}
	if tbl.recordsDropped != 1 {
		t.Fatalf("recordsDropped = %d, want 1", tbl.recordsDropped)
	}
	recs := tbl.list()
	if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
		t.Fatalf("salvaged records = %+v, want job-1 and job-2", recs)
	}
	// The salvaged stopped job is still resumable, and new IDs continue
	// past the survivors.
	if !recs[1].State.resumable() {
		t.Fatalf("job-2 state %s lost resumability", recs[1].State)
	}
	if j := tbl.create(studyRequest{}); j.rec.ID != "job-3" {
		t.Fatalf("next id = %s, want job-3 (sequence continues from survivors)", j.rec.ID)
	}
}

// TestJobTableCorruptVariants covers the rest of the damage matrix:
// clean files and empty files drop nothing; total garbage and a
// non-array document salvage to an empty table instead of failing.
func TestJobTableCorruptVariants(t *testing.T) {
	cases := []struct {
		name    string
		data    string
		recs    int
		dropped uint64
	}{
		{"empty", "", 0, 0},
		{"whitespace", "\n  \n", 0, 0},
		{"garbage", "not json at all", 0, 1},
		{"non-array", `{"id":"job-1"}`, 0, 1},
		{"empty-array", "[]\n", 0, 0},
		{"first-record-corrupt", `[{"id":`, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "jobs.json"), []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			tbl, err := openJobTable(dir, 1)
			if err != nil {
				t.Fatalf("startup failed: %v", err)
			}
			if got := len(tbl.list()); got != tc.recs {
				t.Fatalf("records = %d, want %d", got, tc.recs)
			}
			if tbl.recordsDropped != tc.dropped {
				t.Fatalf("recordsDropped = %d, want %d", tbl.recordsDropped, tc.dropped)
			}
		})
	}

	// An intact file stays lossless.
	dir := t.TempDir()
	writeJobs(t, dir, threeRecords(), nil)
	tbl, err := openJobTable(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.list()) != 3 || tbl.recordsDropped != 0 {
		t.Fatalf("clean load: %d records, %d dropped", len(tbl.list()), tbl.recordsDropped)
	}

	// A record whose request still carries "independent_runs" (earlier
	// builds had that study option; both of its modes produced identical
	// series) loads without loss and re-enqueues to completion.
	dir = t.TempDir()
	legacy := `[{"id":"job-1","state":"stopped","request":{"scale":0.001,"benches":["gzip"],"independent_runs":true},"created_unix":100}]`
	if err := os.WriteFile(filepath.Join(dir, "jobs.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Scale: 0.001, Workers: 1, StateDir: dir, Resume: true}, nil, nil)
	if s.jobs.recordsDropped != 0 {
		t.Fatalf("legacy record dropped: recordsDropped = %d", s.jobs.recordsDropped)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if rec := waitJob(t, srv.URL, "job-1", JobDone); !rec.Resumed {
		t.Fatalf("legacy job not re-enqueued: %+v", rec)
	}
}

// TestJobRecordsDroppedMetric: the salvage count reaches /v1/metrics.
func TestJobRecordsDroppedMetric(t *testing.T) {
	dir := t.TempDir()
	writeJobs(t, dir, threeRecords(), func(data []byte) []byte {
		return data[:len(data)-20]
	})
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := httpGetBody(t, srv.URL+"/v1/metrics")
	if !strings.Contains(body, "inipd_job_records_dropped_total 1") {
		t.Fatalf("metrics missing dropped-records counter:\n%s", body)
	}
}
