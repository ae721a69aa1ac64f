package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// onlyEntries fails unless dir holds exactly the named entries: a
// publish must never leave a temp file behind.
func onlyEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s holds %v, want %v", dir, got, want)
	}
}

// TestConcurrentPublishesLeaveOneWholeFile races writers on one path,
// as holmes-serve's periodic and shutdown snapshot writers can. Each
// publish has its own temp file, so the survivor is one writer's whole
// document and nothing else is left in the directory.
func TestConcurrentPublishesLeaveOneWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	f := Format{Name: "holmes-test", Version: 1, APIVersion: "1.0.0"}
	docs := map[string]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		// Large enough that writes interleaved into one shared temp
		// file would corrupt the document.
		doc, err := f.Seal(strings.Repeat(string(rune('a'+i)), 1<<16))
		if err != nil {
			t.Fatal(err)
		}
		docs[string(doc)] = true
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := WriteFile(path, doc); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(got); err != nil || !docs[string(got)] {
		t.Fatalf("published file is not one writer's whole document (%v)", err)
	}
	onlyEntries(t, dir, "snap.json")
	st, err := os.Stat(path)
	if err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("published file stat %v (%v), want mode 0644", st, err)
	}
}

// TestFailedPublishLeavesPreviousFile: a publish that cannot complete
// reports the error and leaves what was on disk byte for byte, with no
// temp file behind.
func TestFailedPublishLeavesPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	prev := []byte("previous document\n")
	if err := WriteFile(path, prev); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "keep"), prev, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "gone", "snap.json"), []byte("new")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
	if err := WriteFile(sub, []byte("new")); err == nil {
		t.Fatal("publish over a directory succeeded")
	}
	for _, p := range []string{path, filepath.Join(sub, "keep")} {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, prev) {
			t.Fatalf("%s changed by a failed publish: %q (%v)", p, got, err)
		}
	}
	onlyEntries(t, dir, "snap.json", "sub")
	onlyEntries(t, sub, "keep")
}

// TestSealWithoutAPIVersion: a format that pins no API version leaves
// the field off disk (the fleet snapshot's four-field shape) and opens
// its own documents. The api and fleet tests cover each rejection.
func TestSealWithoutAPIVersion(t *testing.T) {
	f := Format{Name: "holmes-test", Version: 2}
	doc, err := f.Seal(map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(doc, []byte("api_version")) {
		t.Fatalf("empty API version written:\n%s", doc)
	}
	if raw, err := f.Open(doc); err != nil || Checksum(raw) != Checksum([]byte(`{"a":1}`)) {
		t.Fatalf("payload %s (%v)", raw, err)
	}
	if _, err := f.Seal(func() {}); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("unmarshalable payload: %v", err)
	}
}
