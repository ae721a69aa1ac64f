package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"holmes/internal/events"
	"holmes/internal/experiments"
	"holmes/internal/fleet"
	"holmes/internal/model"
	"holmes/internal/netsim"
	"holmes/internal/parallel"
	"holmes/internal/pipeline"
	"holmes/internal/sim"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// probeSeed seeds every layer probe. It is fixed, not the workload's
// seed, so the probes' work counts repeat exactly on every run and are
// gated against the recorded ones in expect.go.
const probeSeed = 20240812

// runProbes times each bottom layer on its own, from a benchmark-owned
// driver: the sim event core, the netsim fabric, the pipeline executor,
// engine world construction, trainer.Simulate on prebuilt worlds, the
// experiments suite, the fleet journal, the event hub and topology
// carving.
func runProbes(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	for _, p := range []func(runCfg, *outcome) error{
		simProbe, netsimProbe, pipelineProbe, trainerProbe, experimentsProbe,
		journalProbe, eventsProbe, carveProbe,
	} {
		if err := p(cfg, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simProbe runs a schedule/fire/cancel mix shaped like Table-3's: about
// 300 events pending, and about a quarter of scheduled events cancelled
// before they fire.
func simProbe(cfg runCfg, out *outcome) error {
	const pending, budget = 300, 400_000
	rng := rand.New(rand.NewSource(probeSeed))
	eng := sim.NewEngine()
	type item struct {
		ev  *sim.Event
		pos int
	}
	var live []*item
	remove := func(it *item) {
		last := live[len(live)-1]
		live[it.pos], last.pos = last, it.pos
		live = live[:len(live)-1]
	}
	scheduled, cancelled := 0, 0
	var schedule func()
	fire := func() {
		if scheduled >= budget {
			return
		}
		schedule()
		if rng.Intn(3) == 0 {
			it := live[rng.Intn(len(live))]
			it.ev.Cancel()
			remove(it)
			cancelled++
			schedule()
		}
	}
	schedule = func() {
		it := &item{pos: len(live)}
		it.ev = eng.After(rng.ExpFloat64()*1e-3, func() { remove(it); fire() })
		live = append(live, it)
		scheduled++
	}
	d := timed(cfg.tr, "sim", "Engine.Run", 0, func() {
		for i := 0; i < pending; i++ {
			schedule()
		}
		eng.Run()
	})
	fired := eng.Fired()
	out.attempted++
	out.check(fired == expectedSimEvents, "sim probe fired %d events, recorded %d", fired, expectedSimEvents)
	out.layer["sim.ns_per_event"] = float64(d.Nanoseconds()) / float64(fired)
	out.layer["sim.events"] = float64(fired)
	out.say("sim.cancel_share", float64(cancelled)/float64(scheduled), "ratio", fmt.Sprintf("%d scheduled", scheduled))
	return nil
}

// netsimProbe starts seeded bursts of flows on the 8-node Hybrid fabric
// and runs the engine until every flow has drained.
func netsimProbe(cfg runCfg, out *outcome) error {
	const bursts, perBurst = 200, 12
	rng := rand.New(rand.NewSource(probeSeed))
	topo := topology.HybridEnv(8)
	n := topo.NumDevices()
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	flows, done := 0, 0
	classes := []netsim.Class{netsim.Intra, netsim.RDMA, netsim.Ether}
	for b := 0; b < bursts; b++ {
		type flow struct {
			src, dst int
			bytes    float64
			class    netsim.Class
		}
		burst := make([]flow, perBurst)
		for i := range burst {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			burst[i] = flow{src, dst, (0.5 + 3.5*rng.Float64()) * 1e6, classes[rng.Intn(len(classes))]}
		}
		eng.At(float64(b)*5e-3, func() {
			for _, f := range burst {
				fab.StartFlow(f.src, f.dst, f.bytes, f.class, func() { done++ })
				flows++
			}
		})
	}
	d := timed(cfg.tr, "netsim", "Fabric.StartFlow+drain", 0, func() { eng.Run() })
	// done counts the fabric's completion callbacks, so netsim.flows is
	// what the fabric finished, not what the probe asked for.
	out.attempted++
	out.check(done == flows && flows == bursts*perBurst, "netsim probe: %d of %d flows finished", done, flows)
	out.check(eng.Fired() == expectedNetsimEvents, "netsim probe fired %d events, recorded %d", eng.Fired(), expectedNetsimEvents)
	out.layer["netsim.ns_per_flow"] = float64(d.Nanoseconds()) / float64(max(done, 1))
	out.layer["netsim.flows"] = float64(done)
	out.layer["netsim.sim_events"] = float64(eng.Fired())
	return nil
}

// pipelineProbe runs 1F1B with pipeline.RunOne on a Table-3 fabric
// (Hybrid, 8 nodes, one stage per node pair) and derives the stages'
// idle share from the schedule's busy time and the makespan.
func pipelineProbe(cfg runCfg, out *outcome) error {
	const p, m, runs = 4, 16, 40
	rng := rand.New(rand.NewSource(probeSeed))
	topo := topology.HybridEnv(8)
	ranks := []int{0, 2 * topo.GPUsPerNode, 4 * topo.GPUsPerNode, 6 * topo.GPUsPerNode}
	tf, tb := make([]float64, p), make([]float64, p)
	busy := 0.0
	for s := range tf {
		tf[s] = (8 + 4*rng.Float64()) * 1e-3
		tb[s] = 2 * tf[s]
		busy += float64(m) * (tf[s] + tb[s])
	}
	sched := pipeline.OneFOneB(p, m)
	var makespan float64
	var err error
	d := timed(cfg.tr, "pipeline", "RunOne", 0, func() {
		for r := 0; r < runs && err == nil; r++ {
			eng := sim.NewEngine()
			fab := netsim.New(eng, topo, netsim.DefaultParams())
			makespan, err = pipeline.RunOne(eng, fab, sched, pipeline.ExecConfig{
				Ranks: ranks, ForwardTime: tf, BackwardTime: tb,
				ActivationBytes: 48e6, Class: netsim.Ether,
			})
		}
	})
	if err != nil {
		return fmt.Errorf("pipeline probe: %w", err)
	}
	// The op count is the schedule's own: what OneFOneB laid out for
	// the executor, per run.
	ops := 0
	for _, stage := range sched.Ops {
		ops += runs * len(stage)
	}
	idle := 1 - busy/(float64(p)*makespan)
	out.attempted++
	out.check(idle == expectedIdleShare, "pipeline idle share %.17g, recorded %.17g", idle, expectedIdleShare)
	out.check(ops == expectedPipelineOps, "pipeline schedule holds %d ops over %d runs, recorded %d", ops, runs, expectedPipelineOps)
	out.layer["pipeline.ns_per_op"] = float64(d.Nanoseconds()) / float64(ops)
	out.layer["pipeline.ops"] = float64(ops)
	out.layer["pipeline.idle_share"] = idle
	return nil
}

// table3Cell is one Table-3 configuration in golden-row order.
type table3Cell struct {
	topo  *topology.Topology
	group model.ParameterGroup
	p     int
}

func table3Grid() ([]table3Cell, error) {
	var cells []table3Cell
	for id := 1; id <= 4; id++ {
		for _, env := range topology.AllEnvs {
			for _, nodes := range experiments.Table3Nodes {
				topo, err := topology.Env(env, nodes)
				if err != nil {
					return nil, err
				}
				cells = append(cells, table3Cell{topo, model.Group(id), experiments.PipelineSize(id, nodes)})
			}
		}
	}
	return cells, nil
}

// trainerProbe builds every Table-3 cell's world on a fresh engine
// (each a World miss, timed as the engine layer), then runs
// trainer.Simulate on the prebuilt worlds twice over, checking TFLOPS
// against the golden rows.
func trainerProbe(cfg runCfg, out *outcome) error {
	cells, err := table3Grid()
	if err != nil {
		return err
	}
	golden := cfg.golden
	eng := newEngine()
	base := trainer.BaseOptions()
	var worldMS []float64
	var cfgs []trainer.Config
	for _, c := range cells {
		deg, err := parallel.TileDegrees(c.topo.NumDevices(), c.group.TensorSize, c.p)
		if err != nil {
			return err
		}
		var werr error
		misses := eng.CacheStats().Misses
		tc := trainer.Config{Topo: c.topo, Spec: c.group.Spec, TensorSize: c.group.TensorSize, PipelineSize: c.p, Framework: trainer.Holmes, Opt: &base}
		d := timed(cfg.tr, "engine", "Engine.World", 0, func() {
			_, tc.World, werr = eng.World(c.topo, deg, base.NICSelection)
		})
		if werr != nil {
			return werr
		}
		if eng.CacheStats().Misses > misses {
			worldMS = append(worldMS, ms(d))
		}
		cfgs = append(cfgs, tc)
	}
	var simMS []float64
	for rep := 0; rep < 2; rep++ {
		for i, tc := range cfgs {
			var rep trainer.Report
			var serr error
			d := timed(cfg.tr, "trainer", "Simulate", 0, func() { rep, serr = trainer.Simulate(tc) })
			simMS = append(simMS, ms(d))
			out.attempted++
			out.check(serr == nil && rep.TFLOPS == golden[i].TFLOPS, "trainer cell %s: TFLOPS %v (err %v), golden %v", golden[i].Label, rep.TFLOPS, serr, golden[i].TFLOPS)
		}
	}
	out.layer["engine.world_ms"] = median(worldMS)
	out.layer["trainer.simulate_p50_ms"] = median(simMS)
	out.layer["trainer.simulate_p90_ms"] = quantile(simMS, 0.90)
	out.layer["trainer.calls"] = float64(len(simMS))
	return nil
}

// experimentsProbe regenerates Table 1 (four cells), so every traced
// run times the experiments layer even where the workload does not.
func experimentsProbe(cfg runCfg, out *outcome) error {
	var err error
	timed(cfg.tr, "experiments", "Suite.Table1", 0, func() {
		_, err = experiments.NewSuite(newEngine()).Table1()
	})
	out.attempted++
	out.check(err == nil, "table1: %v", err)
	return nil
}

// journalProbe appends submit records to a fresh journal, fsync
// included, and reports the append latency.
func journalProbe(cfg runCfg, out *outcome) error {
	const appends = 200
	dir, err := os.MkdirTemp(cfg.scratch, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := fleet.OpenJournal(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	var us []float64
	job := fleet.Job{ID: "probe", Submit: 1, GPUs: 8, Iterations: 1}
	for i := 0; i < appends; i++ {
		var aerr error
		d := timed(cfg.tr, "fleet", "Journal.Append", 0, func() {
			_, aerr = j.Append(fleet.Record{At: float64(i), Kind: fleet.RecSubmit, Job: &job})
		})
		if aerr != nil {
			return aerr
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	out.layer["fleet.journal_append_p50_us"] = median(us)
	out.layer["fleet.journal_append_p99_us"] = quantile(us, 0.99)
	return nil
}

// eventsProbe publishes to a hub with four draining subscribers.
func eventsProbe(cfg runCfg, out *outcome) error {
	const subs, n = 4, 20000
	hub := events.NewHub()
	var wg sync.WaitGroup
	got := make([]int, subs)
	for i := 0; i < subs; i++ {
		s := hub.Subscribe(n) // room for every event: the probe times fan-out, not eviction
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for range s.Events() {
				got[i]++
			}
		}(i)
	}
	d := timed(cfg.tr, "events", "Hub.Publish", 0, func() {
		for i := 0; i < n; i++ {
			hub.Publish(events.Event{At: float64(i), Kind: events.KindJob, Job: "probe", State: "queued"})
		}
	})
	hub.Close()
	wg.Wait()
	for i, g := range got {
		out.check(g == n, "events probe subscriber %d got %d of %d", i, g, n)
	}
	out.layer["events.publish_us"] = float64(d.Nanoseconds()) / 1e3 / n
	return nil
}

// carveProbe carves seeded node subsets of the fleet12 topology.
func carveProbe(cfg runCfg, out *outcome) error {
	const carves = 2000
	topo, err := cfg.fleet.Topology()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(probeSeed))
	subsets := make([][]int, carves)
	for i := range subsets {
		subsets[i] = rng.Perm(cfg.fleetNodes)[:1+rng.Intn(4)]
	}
	var cerr error
	d := timed(cfg.tr, "topology", "Topology.Carve", 0, func() {
		for _, s := range subsets {
			if _, err := topo.Carve(s); err != nil && cerr == nil {
				cerr = err
			}
		}
	})
	if cerr != nil {
		return fmt.Errorf("carve probe: %w", cerr)
	}
	out.layer["topology.carve_us"] = float64(d.Nanoseconds()) / 1e3 / carves
	return nil
}
