package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/scenario"
)

// TestPeekSpec covers boot-time fleet discovery: the spec comes from
// the snapshot when one exists, else from the journal's create record;
// no state is a fresh boot; corrupt state is an error, never a silent
// fresh boot.
func TestPeekSpec(t *testing.T) {
	eng := engine.New(engine.Config{})
	write := func(name, data string) func(*testing.T, string) {
		return func(t *testing.T, dir string) { must(t, os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644)) }
	}
	live := func(snapshot bool) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			op := testOp(t, eng, dir, NewFakeClock(), 1000)
			must(t, op.Submit(Job{ID: "a", GPUs: 8, Model: pg1()}))
			if snapshot {
				must(t, op.Snapshot()) // empties the journal: only the snapshot names the fleet
			}
			must(t, op.Abort())
		}
	}
	cases := []struct {
		name  string
		setup func(*testing.T, string)
		ok    bool
		err   string
	}{
		{"no state", func(*testing.T, string) {}, false, ""},
		{"empty journal", write("fleet.journal", ""), false, ""},
		{"journal only", live(false), true, ""},
		{"snapshot present", live(true), true, ""},
		{"corrupt snapshot", write("fleet.journal.snap", `{"format":`), false, "snapshot"},
		{"first record not create", write("fleet.journal", `{"seq":1,"kind":"submit","job":{"id":"a","gpus":8,"model":{"group":1}}}`+"\n"), false, "create record"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.setup(t, dir)
			spec, ok, err := PeekSpec(filepath.Join(dir, "fleet.journal"), "")
			if ok != c.ok || (err == nil) != (c.err == "") || (err != nil && !strings.Contains(err.Error(), c.err)) {
				t.Fatalf("ok=%v err=%v, want ok=%v and an error containing %q", ok, err, c.ok, c.err)
			}
			if ok && !reflect.DeepEqual(spec, Spec{Env: "Hybrid", Nodes: 4}) {
				t.Fatalf("spec %+v", spec)
			}
		})
	}
}

// TestOperatorSetScenarioRecovery replays the set_scenario record kind:
// a timeline replaced, then cleared, on a live operator is journaled,
// and an operator killed after each and recovered from its journal
// schedules bit-identically to one that never died.
func TestOperatorSetScenarioRecovery(t *testing.T) {
	eng := engine.New(engine.Config{})
	clockC, clockV := NewFakeClock(), NewFakeClock()
	ctl := testOp(t, eng, t.TempDir(), clockC, 1000)
	defer ctl.Abort()
	dirV := t.TempDir()
	vic := testOp(t, eng, dirV, clockV, 1000)
	step := func(now float64, f func(*Operator) error) {
		at(ctl, clockC, now)
		must(t, f(ctl))
		at(vic, clockV, now)
		must(t, f(vic))
	}
	crashAndCompare := func(stage string) {
		must(t, vic.Abort())
		clockV = NewFakeClock()
		vic = testOp(t, eng, dirV, clockV, 1000)
		a, err := ctl.Schedule()
		must(t, err)
		b, err := vic.Schedule()
		must(t, err)
		if sa, sb := marshalSched(t, a), marshalSched(t, b); sa != sb {
			t.Fatalf("%s: recovered schedule diverged:\nunkilled:  %s\nrecovered: %s", stage, sa, sb)
		}
		if !reflect.DeepEqual(ctl.m.Scenario(), vic.m.Scenario()) {
			t.Fatalf("%s: recovered scenario %+v, want %+v", stage, vic.m.Scenario(), ctl.m.Scenario())
		}
	}

	step(1, func(o *Operator) error { return o.Submit(Job{ID: "s1", GPUs: 16, Iterations: 3, Model: pg1()}) })
	step(2, func(o *Operator) error { return o.Submit(Job{ID: "s2", GPUs: 8, Iterations: 2, Model: pg1()}) })
	step(3, func(o *Operator) error {
		return o.SetScenario(&scenario.Scenario{Name: "storm", Events: []scenario.Event{
			{Kind: scenario.DegradeNIC, At: 4, Node: 0, Class: scenario.ClassRDMA, Factor: 0.5},
			{Kind: scenario.FailNode, At: 7, Node: 3},
		}})
	})
	crashAndCompare("after set")
	if vic.m.Scenario().Empty() {
		t.Fatal("recovered operator lost the scenario")
	}
	step(5, func(o *Operator) error { return o.SetScenario(nil) })
	crashAndCompare("after clear")
	must(t, vic.Abort())
}
