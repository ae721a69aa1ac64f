package fleet

import (
	"fmt"
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

// TestOperatorMutationRecovery replays the apply_event, cancel and
// retire record kinds: each mutation is applied to an
// unkilled operator and to a victim that is killed right after it and
// recovered from its journal, and the recovered schedule, policy,
// timeline and retired set must DeepEqual the unkilled twin's at every
// step. Both loops are stopped, so the test alone decides when ticks
// (and so retirements) happen.
func TestOperatorMutationRecovery(t *testing.T) {
	eng := engine.New(engine.Config{})
	clockC, clockV := NewFakeClock(), NewFakeClock()
	ctl := eventOp(t, eng, t.TempDir(), clockC, nil)
	defer ctl.Abort()
	dirV := t.TempDir()
	vic := eventOp(t, eng, dirV, clockV, nil)
	crashAndCompare := func(stage string) {
		must(t, vic.Abort())
		clockV = NewFakeClock()
		vic = eventOp(t, eng, dirV, clockV, nil)
		a, err := ctl.Schedule()
		must(t, err)
		b, err := vic.Schedule()
		must(t, err)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: recovered schedule diverged:\nunkilled:  %s\nrecovered: %s", stage, marshalSched(t, a), marshalSched(t, b))
		}
		if ctl.Policy() != vic.Policy() || !reflect.DeepEqual(ctl.m.Scenario(), vic.m.Scenario()) {
			t.Fatalf("%s: recovered policy %q scenario %+v, want %q %+v",
				stage, vic.Policy(), vic.m.Scenario(), ctl.Policy(), ctl.m.Scenario())
		}
		if !reflect.DeepEqual(ctl.Done(), vic.Done()) {
			t.Fatalf("%s: recovered retired set %+v, want %+v", stage, vic.Done(), ctl.Done())
		}
	}
	steps := []struct {
		name string
		now  float64
		f    func(*Operator) error
	}{
		{"submit s1", 1, func(o *Operator) error { return o.Submit(Job{ID: "s1", GPUs: 16, Iterations: 50, Model: pg1()}) }},
		{"submit s2", 2, func(o *Operator) error {
			return o.Submit(Job{ID: "s2", GPUs: 8, Iterations: 50, Model: pg1(), Priority: 5})
		}},
		{"fail_node", 3, func(o *Operator) error { return o.ApplyEvent(scenario.Event{Kind: scenario.FailNode, Node: 0}) }},
		{"restore", 4, func(o *Operator) error { return o.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, Node: 0}) }},
		{"cancel s2", 7, func(o *Operator) error {
			if ok, err := o.Cancel("s2"); !ok {
				return fmt.Errorf("cancel of live s2 refused: %v", err)
			}
			return nil
		}},
	}
	for _, st := range steps {
		at(ctl, clockC, st.now)
		must(t, st.f(ctl))
		at(vic, clockV, st.now)
		must(t, st.f(vic))
		crashAndCompare(st.name)
	}
	if got := len(vic.m.Scenario().Events); got != 2 {
		t.Fatalf("recovered timeline holds %d events, want the fail and the restore", got)
	}

	// Retire s1 at an idle barrier. The victim's snapshot cannot be
	// published, so its crash lands between the retire record and the
	// snapshot that would have covered it: recovery must replay it.
	at(ctl, clockC, 5000)
	ctl.tick()
	at(vic, clockV, 5000)
	vic.snapPath = filepath.Join(dirV, "missing", "fleet.snap")
	vic.tick()
	if len(ctl.Done()) != 1 || ctl.Len() != 0 {
		t.Fatalf("control retired %d jobs with %d live, want s1 retired", len(ctl.Done()), ctl.Len())
	}
	crashAndCompare("retire")
	must(t, vic.Abort())
}

// TestOperatorInMemory pins the journal-less operator to the Manager's
// virtual-time semantics: zero stamps stay 0, the clock never moves,
// nothing retires, persistence calls are no-ops, and every schedule is
// DeepEqual to a bare Manager fed the same mutations.
func TestOperatorInMemory(t *testing.T) {
	eng := engine.New(engine.Config{})
	spec := Spec{Env: "Hybrid", Nodes: 4}
	op, err := NewOperator(eng, spec, OperatorConfig{Policy: "priority"})
	must(t, err)
	topo, err := spec.Topology()
	must(t, err)
	m, err := NewManager(eng, topo)
	must(t, err)
	must(t, m.SetPolicy("priority"))

	jobs := []Job{
		{ID: "a", GPUs: 16, Iterations: 2, Model: pg1()},
		{ID: "b", GPUs: 16, Iterations: 1, Model: pg1(), Priority: 3},
		{ID: "c", Submit: 5, GPUs: 32, Iterations: 1, Model: pg1()},
	}
	for _, j := range jobs {
		must(t, op.Submit(j))
		must(t, m.Submit(j))
	}
	must(t, op.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: 1, Node: 2}))
	must(t, m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: 1, Node: 2}))
	if ok, err := op.Cancel("b"); !ok || err != nil || !m.Cancel("b") {
		t.Fatalf("cancel of a live job = %v, %v", ok, err)
	}
	if ok, err := op.Cancel("b"); ok || err != nil {
		t.Fatalf("second cancel = %v, %v; want false, nil", ok, err)
	}

	a, err := op.Schedule()
	must(t, err)
	b, err := m.Schedule()
	must(t, err)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("in-memory operator diverged from the manager:\noperator: %s\nmanager:  %s", marshalSched(t, a), marshalSched(t, b))
	}
	if j, ok := op.m.jobByID("a"); !ok || j.Submit != 0 {
		t.Fatalf("job a = %+v, %v; want a zero submit stamp", j, ok)
	}
	must(t, op.Snapshot())
	must(t, op.Close())
	must(t, op.Abort())
	if op.Now() != 0 || op.Len() != 2 || len(op.Done()) != 0 {
		t.Fatalf("now=%v live=%d done=%d; want a frozen clock and nothing retired", op.Now(), op.Len(), len(op.Done()))
	}
}

// TestOperatorRejectsMalformedRecords: a journal whose records parse
// but cannot be replayed fails recovery loudly, naming the record,
// instead of recovering a fleet that silently lost a mutation.
func TestOperatorRejectsMalformedRecords(t *testing.T) {
	eng := engine.New(engine.Config{})
	create := `{"seq":1,"kind":"create","fleet":{"env":"Hybrid","nodes":4}}` + "\n"
	for _, c := range []struct{ name, rec, err string }{
		{"second create", `{"seq":2,"kind":"create","fleet":{"env":"Hybrid","nodes":4}}`, "unexpected create"},
		{"submit without job", `{"seq":2,"kind":"submit"}`, "without a job"},
		{"apply_event without event", `{"seq":2,"kind":"apply_event"}`, "without an event"},
		{"retire of unknown job", `{"seq":2,"kind":"retire","ids":["ghost"]}`, "unknown job"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			must(t, os.WriteFile(filepath.Join(dir, "fleet.journal"), []byte(create+c.rec+"\n"), 0o644))
			_, err := NewOperator(eng, Spec{Env: "Hybrid", Nodes: 4}, OperatorConfig{
				Clock:   NewFakeClock(),
				Journal: filepath.Join(dir, "fleet.journal"),
			})
			if err == nil || !strings.Contains(err.Error(), "seq 2") || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("recovery error %v, want one naming seq 2 and %q", err, c.err)
			}
		})
	}
}
