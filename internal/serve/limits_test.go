package serve_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"splitmem/internal/serve"
)

// TestRejectsUnresumableMachine: a job asking for a machine past the size
// limits is a bad-config client error. Such a machine would run, but the
// Image reader rejects its checkpoints as corrupt, so it could never be
// resumed or migrated.
func TestRejectsUnresumableMachine(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	for _, field := range []string{
		`"itlb_size": 1048577`,
		`"dtlb_size": 1048577`,
		`"phys_bytes": 1073741825`,
		`"trace_depth": 16777217`,
	} {
		t.Run(field, func(t *testing.T) {
			body := `{"source": "x", "config": {` + field + `}}`
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error != "bad-config" {
				t.Fatalf("status %d error %q, want 400 bad-config", resp.StatusCode, e.Error)
			}
		})
	}
}
