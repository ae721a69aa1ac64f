package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"holmes/internal/config"
	"holmes/internal/scenario"
)

// goldenFleetSnapshot was encoded into testdata/fleet_snapshot.golden.json
// before the envelope moved to internal/durable. A daemon must recover
// from snapshots older builds wrote, so the file must re-encode byte for
// byte and decode back to this value. Refresh only for a deliberate
// format change: go test ./internal/fleet -run SnapshotGolden -update
var goldenFleetSnapshot = FleetSnapshot{
	Seq: 42, Now: 1234.5, Fleet: Spec{Env: "Hybrid", Nodes: 4}, Policy: "priority",
	Jobs: []Job{{ID: "b", Submit: 4.25, GPUs: 8, Model: config.ModelConfig{Group: 2}, Priority: 5, Tenant: "t1"}},
	Scenario: &scenario.Scenario{Name: "golden", Events: []scenario.Event{
		{Kind: scenario.DegradeNIC, At: 10, Node: 1, Factor: 0.5},
	}},
	Done: []Placement{{
		JobID: "z", Nodes: []int{0, 1}, Degrees: Degrees{Tensor: 1, Pipeline: 2, Data: 8},
		Start: 1, Finish: 101.5, Waited: 0.5, IterSeconds: 0.5075, Throughput: 252.2, TFLOPS: 61.25,
	}},
}

func TestFleetSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "fleet_snapshot.golden.json")
	doc, err := EncodeFleetSnapshot(goldenFleetSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		must(t, os.WriteFile(path, doc, 0o644))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Fatalf("fleet snapshot encoding drifted from %s:\ngot\n%s\nwant\n%s", path, doc, want)
	}
	if got, err := DecodeFleetSnapshot(want); err != nil || !reflect.DeepEqual(got, goldenFleetSnapshot) {
		t.Fatalf("golden decoded to %+v (%v), want %+v", got, err, goldenFleetSnapshot)
	}
}
