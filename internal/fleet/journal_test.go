package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holmes/internal/scenario"
)

func journalAt(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "fleet.journal")
}

func mustAppend(t *testing.T, j *Journal, rec Record) uint64 {
	t.Helper()
	seq, err := j.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestJournalAppendAndRecover(t *testing.T) {
	path := journalAt(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	spec := Spec{Env: "Hybrid", Nodes: 4}
	mustAppend(t, j, Record{At: 0, Kind: RecCreate, Fleet: &spec, Policy: "priority"})
	mustAppend(t, j, Record{At: 1.5, Kind: RecSubmit, Job: &Job{ID: "a", Submit: 1.5, GPUs: 8, Model: pg1()}})
	mustAppend(t, j, Record{At: 2, Kind: RecApplyEvent, Event: &scenario.Event{Kind: scenario.FailNode, At: 2, Node: 1}})
	mustAppend(t, j, Record{At: 3, Kind: RecCancel, ID: "a"})
	if j.Seq() != 4 {
		t.Fatalf("seq %d, want 4", j.Seq())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	if recs[0].Kind != RecCreate || recs[0].Fleet == nil || recs[0].Fleet.Nodes != 4 || recs[0].Policy != "priority" {
		t.Fatalf("create record corrupted: %+v", recs[0])
	}
	if recs[1].Job == nil || recs[1].Job.ID != "a" || recs[1].Job.Submit != 1.5 {
		t.Fatalf("submit record corrupted: %+v", recs[1])
	}
	if recs[2].Event == nil || recs[2].Event.Kind != scenario.FailNode {
		t.Fatalf("event record corrupted: %+v", recs[2])
	}
	// Sequence numbering continues across the restart.
	if seq := mustAppend(t, j2, Record{At: 4, Kind: RecCancel, ID: "b"}); seq != 5 {
		t.Fatalf("post-recovery seq %d, want 5", seq)
	}
}

// TestJournalTornTailDiscarded: a crash mid-append leaves a partial
// final line. Recovery must keep every intact record, drop the tail,
// and truncate it so the next append writes a clean line.
func TestJournalTornTailDiscarded(t *testing.T) {
	path := journalAt(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Kind: RecCreate, Fleet: &Spec{Env: "Hybrid", Nodes: 4}})
	mustAppend(t, j, Record{At: 1, Kind: RecCancel, ID: "x"})
	j.Close()
	// Simulate the torn write: half a record, no terminating newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"at":2,"kind":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (torn third dropped)", len(recs))
	}
	// The truncation is real: the file ends exactly at the last intact
	// record, and the journal continues from seq 2.
	if seq := mustAppend(t, j2, Record{At: 2, Kind: RecCancel, ID: "y"}); seq != 3 {
		t.Fatalf("post-torn seq %d, want 3", seq)
	}
	j2.Close()
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after repair + append: %d records, want 3", len(recs))
	}
}

// A torn final line that happens to be parseable JSON is still not
// trusted: only newline-terminated records count.
func TestJournalUnterminatedFinalRecordDropped(t *testing.T) {
	data := []byte(`{"seq":1,"kind":"cancel","id":"a"}` + "\n" + `{"seq":2,"kind":"cancel","id":"b"}`)
	recs, good, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("recs = %+v, want just record a", recs)
	}
	if good != bytes.IndexByte(data, '\n')+1 {
		t.Fatalf("good = %d, want end of first line", good)
	}
}

// TestJournalUnknownKindRejected: a kind this build does not write,
// whether never defined or cut (set_scenario, set_policy), fails
// recovery loudly instead of being skipped.
func TestJournalUnknownKindRejected(t *testing.T) {
	for _, rec := range []string{
		`{"seq":1,"at":0,"kind":"warp_core_breach"}`,
		`{"seq":1,"at":0,"kind":"set_scenario"}`,
		`{"seq":1,"at":0,"kind":"set_policy","policy":"edf"}`,
	} {
		path := journalAt(t)
		line := rec + "\n" + `{"seq":2,"at":1,"kind":"cancel","id":"a"}` + "\n"
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("%s: unknown kind must reject recovery, got %v", rec, err)
		}
	}
}

func TestJournalCorruptMidFileRejected(t *testing.T) {
	path := journalAt(t)
	line := `{"seq":1,"at":0,"kind":"cancel","id":"a"}` + "\n" + `NOT JSON` + "\n" + `{"seq":3,"at":2,"kind":"cancel","id":"c"}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "corrupt mid-file") {
		t.Fatalf("mid-file corruption must be fatal, got %v", err)
	}
}

func TestJournalNonMonotonicSeqRejected(t *testing.T) {
	line := `{"seq":5,"kind":"cancel","id":"a"}` + "\n" + `{"seq":5,"kind":"cancel","id":"b"}` + "\n"
	if _, _, err := decodeJournal([]byte(line)); err == nil || !strings.Contains(err.Error(), "sequence went backwards") {
		t.Fatalf("duplicate seq must be fatal, got %v", err)
	}
}

func TestJournalReset(t *testing.T) {
	path := journalAt(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Kind: RecCreate, Fleet: &Spec{Env: "Hybrid", Nodes: 4}})
	mustAppend(t, j, Record{At: 1, Kind: RecCancel, ID: "a"})
	if err := j.Reset(2); err != nil {
		t.Fatal(err)
	}
	// The log restarts empty but the numbering continues.
	if seq := mustAppend(t, j, Record{At: 2, Kind: RecCancel, ID: "b"}); seq != 3 {
		t.Fatalf("post-reset seq %d, want 3", seq)
	}
	j.Close()
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("post-reset journal holds %+v, want only seq-3 record", recs)
	}
}

func TestFleetSnapshotRoundTrip(t *testing.T) {
	snap := FleetSnapshot{
		Seq:    42,
		Now:    123.5,
		Fleet:  Spec{Env: "Hybrid", Nodes: 4},
		Policy: "fair",
		Jobs:   []Job{{ID: "a", Submit: 2, GPUs: 8, Model: pg1(), Tenant: "t1"}},
		Scenario: &scenario.Scenario{
			Name:   "s",
			Events: []scenario.Event{{Kind: scenario.FailNode, At: 9, Node: 0}},
		},
		Done: []Placement{{JobID: "z", Nodes: []int{0, 1}, Finish: 50}},
	}
	doc, err := EncodeFleetSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", a, b)
	}

	// A flipped payload byte fails the checksum and rejects the file.
	if !bytes.Contains(doc, []byte(`"fair"`)) {
		t.Fatal("test setup: payload marker not found")
	}
	bad := bytes.Replace(doc, []byte(`"fair"`), []byte(`"fifo"`), 1)
	if _, err := DecodeFleetSnapshot(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered payload must fail the checksum, got %v", err)
	}
	// Wrong format / version are rejected before the payload is read.
	for _, repl := range [][2]string{
		{FleetSnapshotFormat, "holmes-cache-snapshot"},
		{`"version": 1`, `"version": 99`},
	} {
		bad := bytes.Replace(doc, []byte(repl[0]), []byte(repl[1]), 1)
		if _, err := DecodeFleetSnapshot(bad); err == nil {
			t.Fatalf("snapshot with %q accepted", repl[1])
		}
	}
	if _, err := DecodeFleetSnapshot([]byte(`{"format":`)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// FuzzJournalDecode hardens the recovery path: arbitrary bytes must
// never panic, the good-prefix length must stay in bounds, and
// decoding the good prefix again must be a fixed point (same records,
// same length) — that is exactly the truncate-and-reopen cycle
// OpenJournal performs after a crash.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte(`{"seq":1,"at":0,"kind":"create","fleet":{"env":"Hybrid","nodes":4},"policy":"fifo"}` + "\n"))
	f.Add([]byte(`{"seq":1,"kind":"submit","job":{"id":"a","gpus":8,"model":{"group":1}}}` + "\n" + `{"seq":2,"kind":"cancel","id":"a"}` + "\n"))
	f.Add([]byte(`{"seq":1,"kind":"retire","ids":["a","b"]}` + "\n" + `{"seq":2,"kind":"set_pol`))
	f.Add([]byte(`{"seq":1,"kind":"apply_event","event":{"kind":"fail_node","at":3,"node":1}}` + "\n"))
	f.Add([]byte(`{"seq":1,"kind":"warp"}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`garbage`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := decodeJournal(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d out of bounds [0,%d]", good, len(data))
		}
		if err != nil {
			return
		}
		again, good2, err2 := decodeJournal(data[:good])
		if err2 != nil {
			t.Fatalf("good prefix failed to re-decode: %v", err2)
		}
		if good2 != good || len(again) != len(recs) {
			t.Fatalf("re-decode not a fixed point: %d/%d records, %d/%d bytes", len(again), len(recs), good2, good)
		}
		for i := range recs {
			a, _ := json.Marshal(recs[i])
			b, _ := json.Marshal(again[i])
			if string(a) != string(b) {
				t.Fatalf("record %d drifted on re-decode:\n%s\nvs\n%s", i, a, b)
			}
		}
	})
}
