// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate: Table 1 (NIC comparison),
// Table 3 (parameter groups × environments × node counts), Table 4
// (component ablation), Figure 4 (grads-reduce-scatter cost), Figure 5
// (self-adapting vs uniform partition), Figure 6 (framework comparison),
// and Figure 7 (scalability).
//
// Each experiment returns rows carrying both the simulated metrics and
// the paper's published value where one exists, so EXPERIMENTS.md and the
// bench harness can report paper-vs-measured side by side.
//
// Cells of a grid are mutually independent simulations, so every
// experiment fans them out over the engine's bounded worker pool and
// assembles rows strictly in input order — the output is byte-identical
// to a sequential run.
//
// All execution settings (worker count, netsim oracle mode, communicator
// cache) live on an engine.Engine carried by a Suite: independent suites
// on independent engines can run concurrently without interfering. (The
// historical package-level entry points and their Concurrency /
// FullRecompute knobs are gone; construct a Suite.)
package experiments

import (
	"fmt"

	"holmes/internal/config"
	"holmes/internal/engine"
	"holmes/internal/fleet"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// Row is one measurement row of a table or figure.
type Row struct {
	Experiment string  // "table1", "fig5", ...
	Label      string  // human-readable cell label
	TFLOPS     float64 // simulated per-GPU teraFLOP/s
	Throughput float64 // simulated samples/s
	// ReduceScatterMs is the gradient reduce-scatter wall time (Figure 4).
	ReduceScatterMs float64
	// PaperTFLOPS / PaperThroughput are the published values (0 = not
	// reported in the paper for this cell).
	PaperTFLOPS     float64
	PaperThroughput float64
	// Partition notes the stage division used.
	Partition string
}

// Suite binds the experiment grids to one engine: the engine's
// concurrency bounds the cell fan-out, its FullRecompute knob selects the
// netsim oracle, and its cache serves communicator worlds across cells.
type Suite struct {
	eng *engine.Engine
}

// NewSuite returns a suite on the given engine (nil = the shared default
// engine).
func NewSuite(eng *engine.Engine) Suite {
	if eng == nil {
		eng = engine.Default()
	}
	return Suite{eng: eng}
}

// PipelineSize returns the pipeline-parallel degree used for a parameter
// group at a node count: Table 2 pins p=2 for the 3.6B groups and p=3 for
// the 7.5B groups; where 3 does not divide the device count (4 and 8
// nodes) the 7.5B groups run p=4, keeping stages aligned to clusters.
func PipelineSize(groupID, nodes int) int {
	pg := model.Group(groupID)
	p := pg.PipelineSize
	n := nodes * topology.DefaultGPUsPerNode
	if n%(p*pg.TensorSize) != 0 || nodes%p != 0 {
		p = 4
	}
	return p
}

// cell is one pending simulation of an experiment grid.
type cell struct {
	exp, label string
	topo       *topology.Topology
	spec       model.Spec
	t, p       int
	fw         trainer.Framework
	opt        *trainer.Options
	paperT     float64
	paperS     float64
	// sc scripts cluster events onto the cell's fabric (nil = pristine).
	sc *scenario.Scenario
}

// runCell simulates one cell on the suite's engine: the engine decides
// the netsim arm (incremental vs full-recompute oracle) and serves the
// communicator world from its cache.
func (s Suite) runCell(c cell) (Row, error) {
	rep, err := trainer.Simulate(trainer.Config{
		Topo: c.topo, Spec: c.spec, TensorSize: c.t, PipelineSize: c.p,
		Framework: c.fw, Opt: c.opt, Engine: s.eng, Scenario: c.sc,
	})
	if err != nil {
		return Row{}, fmt.Errorf("%s/%s: %w", c.exp, c.label, err)
	}
	return Row{
		Experiment:      c.exp,
		Label:           c.label,
		TFLOPS:          rep.TFLOPS,
		Throughput:      rep.Throughput,
		ReduceScatterMs: rep.ReduceScatterSeconds * 1000,
		PaperTFLOPS:     c.paperT,
		PaperThroughput: c.paperS,
		Partition:       rep.Partition.String(),
	}, nil
}

// runCells executes the cells on the engine's worker pool. Results land
// at their input index, so row order never depends on scheduling; the
// error reported is the first by input order, matching what a sequential
// run would have surfaced.
func (s Suite) runCells(cells []cell) ([]Row, error) {
	rows := make([]Row, len(cells))
	errs := make([]error, len(cells))
	s.eng.Go(len(cells), func(i int) {
		rows[i], errs[i] = s.runCell(cells[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// table1Paper holds the published Table 1 values (GPT-3.6B, 4 nodes).
var table1Paper = map[topology.EnvName][2]float64{
	topology.EnvInfiniBand: {197, 99.23},
	topology.EnvRoCE:       {160, 80.54},
	topology.EnvEthernet:   {122, 61.32},
	topology.EnvHybrid:     {149, 74.91},
}

// Table1 reproduces Table 1: parameter group 1 on 4 nodes across the
// three homogeneous NIC environments (the paper's Table 1 proper) plus
// the Hybrid row that Table 3 adds for the same configuration.
func (s Suite) Table1() ([]Row, error) {
	pg := model.Group(1)
	base := trainer.BaseOptions()
	var cells []cell
	for _, env := range topology.AllEnvs {
		topo, err := topology.Env(env, 4)
		if err != nil {
			return nil, err
		}
		paper := table1Paper[env]
		cells = append(cells, cell{
			exp: "table1", label: string(env), topo: topo, spec: pg.Spec,
			t: pg.TensorSize, p: PipelineSize(1, 4), fw: trainer.Holmes, opt: &base,
			paperT: paper[0], paperS: paper[1],
		})
	}
	return s.runCells(cells)
}

// table3Paper holds the published Table 3 grid indexed by
// [group-1][env][nodes-index] with nodes 4, 6, 8.
var table3Paper = map[int]map[topology.EnvName][3][2]float64{
	1: {
		topology.EnvInfiniBand: {{197, 99.23}, {188, 142.09}, {148, 148.88}},
		topology.EnvRoCE:       {{160, 80.54}, {151, 114.15}, {145, 145.64}},
		topology.EnvEthernet:   {{122, 61.32}, {99, 74.98}, {83, 83.38}},
		topology.EnvHybrid:     {{149, 74.91}, {129, 97.84}, {112, 112.46}},
	},
	2: {
		topology.EnvInfiniBand: {{206, 103.66}, {200, 151.25}, {156, 156.66}},
		topology.EnvRoCE:       {{168, 84.78}, {162, 122.53}, {159, 160.47}},
		topology.EnvEthernet:   {{145, 72.95}, {128, 96.75}, {114, 114.52}},
		topology.EnvHybrid:     {{162, 81.38}, {152, 114.63}, {132, 132.73}},
	},
	3: {
		topology.EnvInfiniBand: {{229, 55.95}, {220, 80.64}, {189, 92.35}},
		topology.EnvRoCE:       {{196, 48.04}, {185, 67.84}, {185, 90.40}},
		topology.EnvEthernet:   {{168, 41.04}, {143, 52.91}, {132, 64.85}},
		topology.EnvHybrid:     {{191, 46.66}, {170, 62.43}, {168, 82.02}},
	},
	4: {
		topology.EnvInfiniBand: {{233, 57.03}, {228, 83.61}, {196, 95.79}},
		topology.EnvRoCE:       {{201, 49.10}, {193, 70.88}, {194, 94.85}},
		topology.EnvEthernet:   {{180, 44.10}, {168, 61.59}, {158, 77.31}},
		topology.EnvHybrid:     {{200, 48.89}, {187, 68.52}, {177, 86.58}},
	},
}

// Table3Nodes are the node counts of Table 3's columns.
var Table3Nodes = []int{4, 6, 8}

// table3Cells builds the Table 3 grid in row order: four parameter
// groups × four NIC environments × {4, 6, 8} nodes. Table3 runs it as
// is; Scenarios crosses the same cells with fault arms, so the two
// grids can never drift apart.
func table3Cells() ([]cell, error) {
	base := trainer.BaseOptions()
	var cells []cell
	for id := 1; id <= 4; id++ {
		pg := model.Group(id)
		for _, env := range topology.AllEnvs {
			for ni, nodes := range Table3Nodes {
				topo, err := topology.Env(env, nodes)
				if err != nil {
					return nil, err
				}
				paper := table3Paper[id][env][ni]
				cells = append(cells, cell{
					exp:   "table3",
					label: fmt.Sprintf("PG%d/%s/%dn", id, env, nodes),
					topo:  topo, spec: pg.Spec,
					t: pg.TensorSize, p: PipelineSize(id, nodes),
					fw: trainer.Holmes, opt: &base,
					paperT: paper[0], paperS: paper[1],
				})
			}
		}
	}
	return cells, nil
}

// Table3 reproduces the full Table 3 grid.
func (s Suite) Table3() ([]Row, error) {
	cells, err := table3Cells()
	if err != nil {
		return nil, err
	}
	return s.runCells(cells)
}

// Figure4 reproduces the grads-reduce-scatter comparison: the wall time of
// gradient reduce-scatter per parameter group for 4 and 8 nodes in every
// NIC environment (log-scale milliseconds in the paper).
func (s Suite) Figure4() ([]Row, error) {
	base := trainer.BaseOptions()
	var cells []cell
	for _, nodes := range []int{4, 8} {
		for id := 1; id <= 4; id++ {
			pg := model.Group(id)
			for _, env := range topology.AllEnvs {
				topo, err := topology.Env(env, nodes)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell{
					exp:   "fig4",
					label: fmt.Sprintf("PG%d/%s/%dn", id, env, nodes),
					topo:  topo, spec: pg.Spec,
					t: pg.TensorSize, p: PipelineSize(id, nodes),
					fw: trainer.Holmes, opt: &base,
				})
			}
		}
	}
	return s.runCells(cells)
}

// Figure5 reproduces the partition-strategy comparison: Holmes
// (self-adapting, α=1.05) versus uniform partition for every parameter
// group on the 8-node hybrid environment, with the overlapped optimizer
// active in both arms.
func (s Suite) Figure5() ([]Row, error) {
	topo := topology.HybridEnv(8)
	var cells []cell
	for id := 1; id <= 4; id++ {
		pg := model.Group(id)
		p := PipelineSize(id, 8)
		for _, sa := range []bool{true, false} {
			opt := trainer.DefaultOptions(trainer.Holmes)
			opt.SelfAdaptingPartition = sa
			name := "Holmes"
			if !sa {
				name = "Uniform"
			}
			cells = append(cells, cell{
				exp:   "fig5",
				label: fmt.Sprintf("PG%d/%s", id, name),
				topo:  topo, spec: pg.Spec,
				t: pg.TensorSize, p: p, fw: trainer.Holmes, opt: &opt,
			})
		}
	}
	return s.runCells(cells)
}

// figure6Paper holds Figure 6's published throughputs (PG3, 8 nodes:
// 4 IB + 4 RoCE).
var figure6Paper = map[trainer.Framework]float64{
	trainer.MegatronDeepSpeed: 54.037,
	trainer.MegatronLM:        63.438,
	trainer.MegatronLLaMA:     77.933,
	trainer.Holmes:            89.481,
}

// Figure6 reproduces the framework comparison: parameter group 3 on the
// 8-node hybrid environment across the four frameworks.
func (s Suite) Figure6() ([]Row, error) {
	pg := model.Group(3)
	topo := topology.HybridEnv(8)
	p := PipelineSize(3, 8)
	var cells []cell
	for _, fw := range trainer.AllFrameworks {
		cells = append(cells, cell{
			exp: "fig6", label: string(fw), topo: topo, spec: pg.Spec,
			t: pg.TensorSize, p: p, fw: fw,
			paperS: figure6Paper[fw],
		})
	}
	return s.runCells(cells)
}

// figure7Paper holds Figure 7's published throughputs for Holmes on the
// 39.1B model at 4, 8, 12 nodes.
var figure7Paper = map[int]float64{4: 9.766, 8: 18.52, 12: 25.771}

// Figure7Nodes are the scalability points.
var Figure7Nodes = []int{4, 8, 12}

// Figure7 reproduces the scalability study: the 39.1-billion-parameter
// GPT model on 4, 8, and 12 hybrid nodes, Holmes versus Megatron-LLaMA
// and Megatron-LM.
func (s Suite) Figure7() ([]Row, error) {
	spec := model.GPT39B(1536)
	var cells []cell
	for _, nodes := range Figure7Nodes {
		topo := topology.HybridEnv(nodes)
		for _, fw := range []trainer.Framework{trainer.Holmes, trainer.MegatronLLaMA, trainer.MegatronLM} {
			c := cell{
				exp:   "fig7",
				label: fmt.Sprintf("%s/%dn", fw, nodes),
				topo:  topo, spec: spec, t: 1, p: 4, fw: fw,
			}
			if fw == trainer.Holmes {
				c.paperS = figure7Paper[nodes]
			}
			cells = append(cells, c)
		}
	}
	return s.runCells(cells)
}

// table4Paper holds the published ablation (PG3, 8-node hybrid).
var table4Paper = map[string][2]float64{
	"Megatron-LM":       {132, 64.86},
	"Holmes":            {183, 89.48},
	"w/o Self-Adapting": {179, 87.55},
	"w/o Overlapped":    {170, 83.15},
	"w/o Above Two":     {168, 82.02},
}

// Table4 reproduces the component ablation on parameter group 3, 8-node
// hybrid.
func (s Suite) Table4() ([]Row, error) {
	pg := model.Group(3)
	topo := topology.HybridEnv(8)
	p := PipelineSize(3, 8)

	noSA := trainer.DefaultOptions(trainer.Holmes)
	noSA.SelfAdaptingPartition = false
	noOv := trainer.DefaultOptions(trainer.Holmes)
	noOv.OverlappedOptimizer = false
	base := trainer.BaseOptions()

	variants := []struct {
		label string
		fw    trainer.Framework
		opt   *trainer.Options
	}{
		{"Megatron-LM", trainer.MegatronLM, nil},
		{"Holmes", trainer.Holmes, nil},
		{"w/o Self-Adapting", trainer.Holmes, &noSA},
		{"w/o Overlapped", trainer.Holmes, &noOv},
		{"w/o Above Two", trainer.Holmes, &base},
	}
	var cells []cell
	for _, v := range variants {
		paper := table4Paper[v.label]
		cells = append(cells, cell{
			exp: "table4", label: v.label, topo: topo, spec: pg.Spec,
			t: pg.TensorSize, p: p, fw: v.fw, opt: v.opt,
			paperT: paper[0], paperS: paper[1],
		})
	}
	return s.runCells(cells)
}

// ScenarioVariants are the fault arms of the scenario grid, in row
// order. The pristine arm is an empty scenario — bit-identical to the
// plain Table 3 cell by construction; the degraded arm halves node 0's
// RDMA and Ethernet capacity from the start of the iteration; the failed
// arm drops node 0 off the network fabric entirely.
var ScenarioVariants = []*scenario.Scenario{
	{Name: "pristine"},
	{Name: "degraded", Events: []scenario.Event{
		{Kind: scenario.DegradeNIC, At: 0, Node: 0, Class: scenario.ClassRDMA, Factor: 0.5},
		{Kind: scenario.DegradeNIC, At: 0, Node: 0, Class: scenario.ClassEther, Factor: 0.5},
	}},
	{Name: "failed", Events: []scenario.Event{
		{Kind: scenario.FailNode, At: 0, Node: 0},
	}},
	// The impaired arm exercises the packet-impairment vocabulary: node 0
	// straggles at 70%, loses 10% of RDMA traffic (goodput derate), and
	// sees 1 ms extra RDMA latency with a seeded heavy-tailed jitter on
	// top — a lossy, late, slow node rather than a dead one.
	{Name: "impaired", Seed: 17, Events: []scenario.Event{
		{Kind: scenario.Straggler, At: 0, Node: 0, Factor: 0.7},
		{Kind: scenario.Loss, At: 0, Node: 0, Class: scenario.ClassRDMA, Pct: 10},
		{Kind: scenario.Delay, At: 0, Node: 0, Class: scenario.ClassRDMA, DelayMs: 1, Direction: "both"},
		{Kind: scenario.Jitter, At: 0, Node: 0, Class: scenario.ClassRDMA, JitterMs: 0.2, Dist: "pareto"},
	}},
}

// Scenarios runs the scenario grid: every Table 3 cell under each of the
// ScenarioVariants fault arms — the robustness counterpart of the paper's
// headline table. Rows keep Table 3's cell order, fault arms innermost.
func (s Suite) Scenarios() ([]Row, error) {
	base, err := table3Cells()
	if err != nil {
		return nil, err
	}
	cells := make([]cell, 0, len(base)*len(ScenarioVariants))
	for _, c := range base {
		for _, sc := range ScenarioVariants {
			c := c
			c.exp = "scenarios"
			c.label += "/" + sc.Name
			c.paperT, c.paperS = 0, 0 // the paper has no under-fault numbers
			c.sc = sc
			cells = append(cells, c)
		}
	}
	return s.runCells(cells)
}

// FleetJobs are the contending jobs of the fleet grid: the four Table-2
// parameter groups arriving together on an 8-node hybrid fleet, demands
// sized so the fleet is oversubscribed and the scheduler must queue.
var FleetJobs = []fleet.Job{
	{ID: "PG1", GPUs: 16, Iterations: 1, Model: config.ModelConfig{Group: 1}},
	{ID: "PG2", GPUs: 16, Iterations: 1, Model: config.ModelConfig{Group: 2}},
	{ID: "PG3", GPUs: 32, Iterations: 1, Model: config.ModelConfig{Group: 3}},
	{ID: "PG4", GPUs: 32, Iterations: 1, Model: config.ModelConfig{Group: 4}},
}

// FleetVariants are the fleet grid's arms: a pristine replay and a
// degraded one where a RoCE node loses half its RDMA capacity at the
// start and an IB node fails mid-run (evicting and requeueing whatever
// was placed on it).
var FleetVariants = []*scenario.Scenario{
	{Name: "pristine"},
	{Name: "degraded", Events: []scenario.Event{
		{Kind: scenario.DegradeNIC, At: 0, Node: 4, Class: scenario.ClassRDMA, Factor: 0.5},
		{Kind: scenario.FailNode, At: 5, Node: 0},
	}},
}

// Fleet runs the multi-job fleet grid: the Table-3 parameter groups as
// contending jobs on one shared 8-node hybrid fleet, replayed pristine
// and degraded. Rows carry each job's planned slice performance; the
// schedule itself (placements, makespan) is pinned by the fleet golden
// test, so the grid reports the paper-comparable metrics only.
func (s Suite) Fleet() ([]Row, error) {
	// The variant replays are independent; fan them over the engine pool
	// and collect rows in variant order, so the table is identical to a
	// sequential run (same recipe as the experiment-grid cells).
	scheds := make([]*fleet.Schedule, len(FleetVariants))
	errs := make([]error, len(FleetVariants))
	s.eng.Go(len(FleetVariants), func(i int) {
		tr := &fleet.Trace{
			Name:     "fleet",
			Fleet:    Spec8Hybrid(),
			Scenario: FleetVariants[i],
			Jobs:     FleetJobs,
		}
		scheds[i], errs[i] = fleet.Replay(s.eng, tr)
	})
	var rows []Row
	for i, sc := range FleetVariants {
		if errs[i] != nil {
			return nil, fmt.Errorf("fleet/%s: %w", sc.Name, errs[i])
		}
		for _, p := range scheds[i].Jobs {
			rows = append(rows, Row{
				Experiment: "fleet",
				Label:      fmt.Sprintf("%s/%s", p.JobID, sc.Name),
				TFLOPS:     p.TFLOPS,
				Throughput: p.Throughput,
				Partition:  p.Partition,
			})
		}
	}
	return rows, nil
}

// Spec8Hybrid is the fleet grid's topology: the paper's 8-node hybrid
// environment expressed as a fleet spec.
func Spec8Hybrid() fleet.Spec {
	return fleet.Spec{Env: string(topology.EnvHybrid), Nodes: 8}
}

// Names lists experiment ids in paper order; "scenarios" and "fleet"
// are the grid's fault-robustness and multi-job extensions beyond the
// paper.
var Names = []string{"table1", "table3", "fig4", "fig5", "fig6", "fig7", "table4", "scenarios", "fleet"}

// Run dispatches one experiment by id.
func (s Suite) Run(id string) ([]Row, error) {
	switch id {
	case "table1":
		return s.Table1()
	case "table3":
		return s.Table3()
	case "fig4":
		return s.Figure4()
	case "fig5":
		return s.Figure5()
	case "fig6":
		return s.Figure6()
	case "fig7":
		return s.Figure7()
	case "table4":
		return s.Table4()
	case "scenarios":
		return s.Scenarios()
	case "fleet":
		return s.Fleet()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, Names)
	}
}
