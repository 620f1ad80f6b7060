package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAddrLineClusterBanner pins the -addr view against a spearproxy:
// the shards list renders as a cluster health banner ahead of the
// merged counts, and a plain speard response (no shards) stays
// banner-free.
func TestAddrLineClusterBanner(t *testing.T) {
	cluster := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/progress" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{
			"jobs_queued": 1, "jobs_running": 2, "jobs_done": 5,
			"jobs_failed": 0, "jobs_interrupted": 0, "jobs_shed": 0,
			"runs": {"done": 20, "failed": 0, "skipped": 0},
			"shards": [
				{"addr": "http://h1:8791", "state": "ready"},
				{"addr": "http://h2:8791", "state": "draining"},
				{"addr": "http://h3:8791", "state": "down", "error": "connection refused"}
			]
		}`))
	}))
	defer cluster.Close()

	line, err := addrLine(cluster.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cluster: 1/3 shards ready",
		"http://h2:8791: draining",
		"http://h3:8791: down (connection refused)",
		"2 running",
		"20 done",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("cluster line missing %q:\n%s", want, line)
		}
	}

	single := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"jobs_done": 1, "runs": {"done": 4, "failed": 0, "skipped": 0}}`))
	}))
	defer single.Close()
	line, err = addrLine(single.URL)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(line, "cluster:") {
		t.Errorf("single-speard line grew a cluster banner:\n%s", line)
	}
}
