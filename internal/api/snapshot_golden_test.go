package api

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// TestCacheSnapshotGolden: testdata/cache_snapshot.golden.json holds one
// cached plan, saved before the envelope moved to internal/durable. A
// daemon warm-starts from files older builds wrote, so this build must
// load it whole and save it back byte for byte. Refresh only for a
// deliberate format or API-version change:
// go test ./internal/api -run SnapshotGolden -update
func TestCacheSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "cache_snapshot.golden.json")
	if *update {
		_, seed := newSnapshotServer(t, 1)
		rec := httptest.NewRecorder()
		seed.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(snapshotCorpus[0].body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed plan: %d %s", rec.Code, rec.Body)
		}
		doc, err := seed.SaveSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newSnapshotServer(t, 1)
	if counts, err := srv.LoadSnapshot(want); err != nil || counts.Responses != 1 {
		t.Fatalf("golden loaded %+v (%v), want one response", counts, err)
	}
	got, err := srv.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cache snapshot re-encoding drifted from %s:\ngot\n%s\nwant\n%s", path, got, want)
	}
}
