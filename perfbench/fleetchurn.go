package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"holmes/internal/config"
	"holmes/internal/engine"
	"holmes/internal/events"
	"holmes/internal/fleet"
	"holmes/internal/scenario"
)

// fleet12Trace is the canonical fleet trace; fleet-churn runs on its
// topology (4 InfiniBand, 4 RoCE and 2 Ethernet nodes of 8 GPUs).
const fleet12Trace = "internal/fleet/testdata/fleet12.json"

// loadFleet12 reads the fleet12 topology under the repository root and
// returns it with its node count.
func loadFleet12(root string) (fleet.Spec, int, error) {
	tr, err := fleet.LoadFile(filepath.Join(root, fleet12Trace))
	if err != nil {
		return fleet.Spec{}, 0, err
	}
	topo, err := tr.Fleet.Topology()
	if err != nil {
		return fleet.Spec{}, 0, err
	}
	return tr.Fleet, topo.NumNodes(), nil
}

const (
	// The live set stays between minLive and maxLive jobs, well under
	// the 64-job limit: a benchmark run at the cap spends minutes per
	// few hundred mutations and measures only that regime.
	minLive = 10
	maxLive = 14
	// scriptSteps is one pass of fleet-churn. Passes differ in how many
	// cold slice searches their scripts cause, so a run's figures settle
	// with the number of passes: short scripts give a 15-s run 10 to 30
	// of them, depending on the host's speed.
	scriptSteps = 500
	// subscriberBuffer is the draining subscriber's channel size: the
	// events of several hundred mutations, far more than the draining
	// goroutine falls behind, and 0.65 MB of live heap (an Event is 160
	// bytes) where a buffer for a whole pass would dwarf the operator's.
	subscriberBuffer = 4096
)

// fleetOp is one step of the fleet-churn script.
type fleetOp struct {
	Kind string          `json:"kind"` // submit, cancel, event or status
	Job  *fleet.Job      `json:"job,omitempty"`
	ID   string          `json:"id,omitempty"`
	Ev   *scenario.Event `json:"event,omitempty"`
}

// genFleetScript draws n steps from seed: submits with increasing
// explicit virtual stamps, cancels of the oldest live job, fail_node then
// restore_node on one node, and job-status reads. The generator tracks
// the live set so it stays bounded. Failed nodes are drawn from the
// fleet's nodes.
func genFleetScript(seed int64, n, nodes int) []fleetOp {
	rng := rand.New(rand.NewSource(seed))
	var live []string
	var ops []fleetOp
	vt := 0.0 // virtual arrival frontier
	next := 0
	submit := func() {
		next++
		vt += 1 + rng.ExpFloat64()*4
		j := fleet.Job{
			ID:         fmt.Sprintf("j%05d", next),
			Submit:     vt,
			GPUs:       8 * (1 + rng.Intn(2)),
			Iterations: 1 + rng.Intn(3),
			Model:      config.ModelConfig{Group: 1 + rng.Intn(2)},
		}
		live = append(live, j.ID)
		ops = append(ops, fleetOp{Kind: "submit", Job: &j})
	}
	// Cancels take the oldest live job, as completions would, so the
	// live window slides forward at a steady pace.
	cancel := func() {
		ops = append(ops, fleetOp{Kind: "cancel", ID: live[0]})
		live = live[1:]
	}
	for len(ops) < n {
		switch r := rng.Float64(); {
		case len(live) < minLive:
			submit()
		case len(live) >= maxLive:
			cancel()
		case r < 0.40:
			submit()
		case r < 0.70:
			cancel()
		case r < 0.75 && len(ops)+2 <= n:
			node := rng.Intn(nodes)
			at := vt + rng.Float64()*10
			ops = append(ops,
				fleetOp{Kind: "event", Ev: &scenario.Event{Kind: "fail_node", At: at, Node: node}},
				fleetOp{Kind: "event", Ev: &scenario.Event{Kind: "restore_node", At: at + 5 + rng.Float64()*20, Node: node}})
		default:
			ops = append(ops, fleetOp{Kind: "status", ID: live[rng.Intn(len(live))]})
		}
	}
	return ops[:n]
}

// fleetState is one fleet-churn set-up: a fresh engine, an event hub
// with one draining subscriber, and an operator on a fresh journal
// whose fake clock never moves, so no edge passes on its own and the
// script alone decides every record.
type fleetState struct {
	eng     *engine.Engine
	hub     *events.Hub
	drained chan int // journal-backed events the subscriber saw
	dir     string
	journal string
	op      *fleet.Operator
	script  []fleetOp
}

func setupFleet(cfg runCfg, seed int64, n int) (*fleetState, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	st := &fleetState{dir: dir, journal: filepath.Join(dir, "fleet.journal"), drained: make(chan int, 1)}
	st.eng = newEngine()
	st.hub = events.NewHub()
	sub := st.hub.Subscribe(subscriberBuffer)
	go func() {
		n := 0
		for ev := range sub.Events() {
			if ev.JournalSeq != 0 {
				n++
			}
		}
		st.drained <- n
	}()
	timed(cfg.tr, "fleet", "NewOperator", 0, func() {
		st.op, err = fleet.NewOperator(st.eng, cfg.fleet, fleet.OperatorConfig{
			Clock:         fleet.NewFakeClock(),
			Journal:       st.journal,
			SnapshotEvery: 1 << 30, // keep every record, so recovery replays the whole journal
			Events:        st.hub,
		})
	})
	if err != nil {
		st.hub.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	st.script = genFleetScript(seed, n, cfg.fleetNodes)
	return st, nil
}

// discard stops the operator and the subscriber and removes the
// journal; it returns the subscriber's journal-backed event count.
func (st *fleetState) discard() int {
	_ = st.op.Abort() // the run is over; only the journal file matters and it is removed
	st.hub.Close()
	n := <-st.drained
	os.RemoveAll(st.dir)
	return n
}

// churnResult is what one pass of the script measured.
type churnResult struct {
	step, mutate, poll, status []float64 // ms
	acked                      int       // acknowledged mutations (each one journal record)
	searches                   uint64
	planHits                   float64
}

func runScript(cfg runCfg, st *fleetState, out *outcome) churnResult {
	var r churnResult
	s0 := st.eng.SearchStats()
	for i, op := range st.script {
		out.attempted++
		if op.Kind == "status" {
			var ok bool
			var err error
			d := timed(cfg.tr, "fleet", "Operator.Job", 0, func() { _, ok, err = st.op.Job(op.ID) })
			r.status = append(r.status, ms(d))
			out.check(err == nil && ok, "step %d: status of %s: ok=%v err=%v", i, op.ID, ok, err)
			continue
		}
		root := cfg.tr.begin("bench", "fleet-churn.step", 0)
		t0 := time.Now()
		var err error
		mut := timed(cfg.tr, "fleet", "Operator."+op.Kind, root, func() {
			switch op.Kind {
			case "submit":
				err = st.op.Submit(*op.Job)
			case "cancel":
				var ok bool
				ok, err = st.op.Cancel(op.ID)
				if err == nil && !ok {
					err = fmt.Errorf("cancel of live job %s found nothing", op.ID)
				}
			case "event":
				err = st.op.ApplyEvent(*op.Ev)
			}
		})
		if err == nil {
			r.acked++
		}
		var perr error
		poll := timed(cfg.tr, "fleet", "Operator.Schedule", root, func() { _, perr = st.op.Schedule() })
		r.step = append(r.step, ms(time.Since(t0)))
		cfg.tr.end(root)
		r.mutate = append(r.mutate, ms(mut))
		r.poll = append(r.poll, ms(poll))
		out.check(err == nil && perr == nil, "step %d %s: %v / poll %v", i, op.Kind, err, perr)
	}
	r.searches = st.eng.SearchStats().Searches - s0.Searches
	pc := st.eng.PlanCacheStats()
	r.planHits = ratio(pc.Hits, pc.Hits+pc.Misses)
	return r
}

// recoverAndCheck closes the live operator as a crash would, recovers
// it from its journal on a fresh engine three times (the recovery time
// is the median NewOperator call), and checks the recovered schedule,
// the record count and the event stream.
func recoverAndCheck(cfg runCfg, st *fleetState, r churnResult, out *outcome) (float64, int, uint64, error) {
	live, err := st.op.Schedule()
	if err != nil {
		return 0, 0, 0, err
	}
	_ = st.op.Abort() // a crash: no retirement, no snapshot, the journal stays whole
	st.hub.Close()
	streamed := <-st.drained
	published := st.hub.Stats().Published

	var times []float64
	var sched *fleet.Schedule
	for i := 0; i < 3; i++ {
		var rec *fleet.Operator
		d := timed(cfg.tr, "fleet", "NewOperator.recover", 0, func() {
			rec, err = fleet.NewOperator(newEngine(), cfg.fleet, fleet.OperatorConfig{
				Clock: fleet.NewFakeClock(), Journal: st.journal, SnapshotEvery: 1 << 30,
			})
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("recover: %w", err)
		}
		times = append(times, d.Seconds())
		sched, err = rec.Schedule()
		_ = rec.Abort() // recovery only reads the journal; nothing to flush
		if err != nil {
			return 0, 0, 0, fmt.Errorf("recovered schedule: %w", err)
		}
	}
	out.attempted++
	out.check(reflect.DeepEqual(live, sched), "recovered schedule differs from the live one")

	j, recs, err := fleet.OpenJournal(st.journal)
	if err != nil {
		return 0, 0, 0, err
	}
	j.Close()
	out.check(len(recs) == r.acked+1, "journal holds %d records, want create + %d mutations", len(recs), r.acked)
	out.check(streamed == len(recs)-1, "event stream carried %d journal-backed events for %d mutation records", streamed, len(recs)-1)
	os.RemoveAll(st.dir)
	return median(times), len(recs), published, nil
}

// fleetChurn drives the operator through the seeded script, pass after
// pass, each on a fresh engine and journal, until the run's seconds are
// spent (at least two passes).
func fleetChurn(cfg runCfg) (*outcome, error) { return runFleet(cfg, scriptSteps, cfg.seconds) }

// fleetChurnReach drives the fleet and events layers for a traced run
// of another workload: two passes of a short script.
func fleetChurnReach(cfg runCfg) (*outcome, error) { return runFleet(cfg, 150, 0) }

// fleetPass is what one pass measured.
type fleetPass struct {
	churnResult
	recover   float64
	records   int
	published uint64
	allocMB   float64
	liveMB    float64 // heap after the pass, before recovery
}

func runFleet(cfg runCfg, n int, seconds float64) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	// Each pass runs its own script, drawn from the run's seed and the
	// pass number, so one run averages over several scripts.
	setup := func(pass int) (*fleetState, error) {
		t0 := time.Now()
		st, err := setupFleet(cfg, cfg.seed*1000+int64(pass), n)
		setups = append(setups, time.Since(t0).Seconds())
		return st, err
	}
	// Set-up is a few milliseconds, mostly the create record's fsync, so
	// it is repeated for a steady median.
	for i := 0; i < 10; i++ {
		st, err := setup(0)
		if err != nil {
			return nil, err
		}
		st.discard()
	}
	var passes []fleetPass
	var last *fleetState
	start := time.Now()
	for len(passes) < 2 || time.Since(start).Seconds() < seconds {
		st, err := setup(len(passes))
		if err != nil {
			return nil, err
		}
		mem := markMem()
		p := fleetPass{churnResult: runScript(cfg, st, out)}
		p.allocMB = mem.allocMB()
		st.script = nil // the generator's, not the operator's
		p.liveMB = liveHeapMB()
		if p.recover, p.records, p.published, err = recoverAndCheck(cfg, st, p.churnResult, out); err != nil {
			return nil, err
		}
		passes = append(passes, p)
		last = st
	}

	if cfg.tr != nil {
		// The exact counts must repeat: replay the first pass's script
		// on a second operator, untraced, and compare.
		twin, err := setupFleet(runCfg{scratch: cfg.scratch, fleet: cfg.fleet, fleetNodes: cfg.fleetNodes}, cfg.seed*1000, n)
		if err != nil {
			return nil, err
		}
		r := runScript(runCfg{}, twin, newOutcome())
		events := twin.discard()
		f := passes[0]
		out.check(r.searches == f.searches && r.acked+1 == f.records && events == r.acked,
			"replayed script: %d searches, %d mutations, %d events; first run %d searches, %d records",
			r.searches, r.acked, events, f.searches, f.records)
	}

	// p50_ms and tail_ms pool the steps of every pass. A single pass's
	// p90 falls on either side of a gap in the step times, depending on
	// how many cold searches its script happens to cause; pooled over a
	// run's passes it does not.
	var steps, mutate, poll, status, recover, alloc, live []float64
	for _, p := range passes {
		steps = append(steps, p.step...)
		mutate = append(mutate, p.mutate...)
		poll = append(poll, p.poll...)
		status = append(status, p.status...)
		recover = append(recover, p.recover)
		alloc = append(alloc, p.allocMB)
		live = append(live, p.liveMB)
	}
	f := passes[0]
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = quantile(steps, 0.5)
	out.e2e["tail_ms"] = quantile(steps, tailQ)
	out.e2e["batch_s"] = median(recover)
	out.e2e["alloc_mb"] = median(alloc)
	out.e2e["live_heap_mb"] = median(live)

	out.layer["fleet.mutate_p50_ms"] = quantile(mutate, 0.5)
	out.layer["fleet.mutate_p99_ms"] = quantile(mutate, 0.99)
	out.layer["fleet.poll_p50_ms"] = quantile(poll, 0.5)
	out.layer["fleet.poll_p99_ms"] = quantile(poll, 0.99)
	out.layer["fleet.plan_hit_ratio"] = f.planHits
	out.layer["fleet.searches"] = float64(f.searches)
	out.layer["fleet.journal_records"] = float64(f.records)
	out.layer["events.published"] = float64(f.published)
	out.layer["events.evicted"] = float64(last.hub.Stats().Dropped)
	cs := last.eng.CacheStats()
	out.layer["engine.world_hit_ratio"] = ratio(cs.Hits, cs.Hits+cs.Misses)

	out.say("setup_s", out.e2e["setup_s"], "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	out.say("p50_ms", out.e2e["p50_ms"], "ms", fmt.Sprintf("mutation + Schedule() poll, %d samples over %d passes", len(steps), len(passes)))
	out.say("p90_ms", out.e2e["tail_ms"], "ms", "reported as tail_ms")
	out.say("p99_ms", quantile(steps, 0.99), "ms", "")
	out.say("recover_s", out.e2e["batch_s"], "s", fmt.Sprintf("median recovery of %d journal records; reported as batch_s", f.records))
	out.say("status_p50_ms", quantile(status, 0.5), "ms", fmt.Sprintf("%d job-status reads", len(status)))
	out.say("searches", float64(f.searches), "count", "joint searches per pass")
	out.say("alloc_mb", out.e2e["alloc_mb"], "MB", "per pass")
	out.say("live_heap_mb", out.e2e["live_heap_mb"], "MB", "after each pass, median over passes")
	return out, nil
}
