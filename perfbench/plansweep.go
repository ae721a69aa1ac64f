package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"holmes/internal/core"
	"holmes/internal/engine"
	"holmes/internal/experiments"
	"holmes/internal/model"
	"holmes/internal/topology"
)

// goldenTable3 pins every Table-3 row bit for bit; plan-sweep checks
// each regeneration against it.
const goldenTable3 = "internal/experiments/testdata/table3.golden.json"

// searchItem is one joint (t, p) search of the cold corpus.
type searchItem struct {
	key   string
	topo  *topology.Topology
	group int
}

// searchCorpus is the Table-3 grid as joint-search inputs, 4 envs ×
// {4,6,8} nodes × 4 groups = 48 searches, in an order drawn from seed.
// The order changes which searches share a warm communicator cache but
// not the work a search does.
func searchCorpus(seed int64) ([]searchItem, error) {
	var items []searchItem
	for _, env := range topology.AllEnvs {
		for _, nodes := range experiments.Table3Nodes {
			topo, err := topology.Env(env, nodes)
			if err != nil {
				return nil, err
			}
			for g := 1; g <= 4; g++ {
				items = append(items, searchItem{key: fmt.Sprintf("%s/%dn/g%d", env, nodes, g), topo: topo, group: g})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

func loadGolden() ([]experiments.Row, error) {
	data, err := os.ReadFile(goldenTable3)
	if err != nil {
		return nil, err
	}
	var rows []experiments.Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenTable3, err)
	}
	return rows, nil
}

// searchWidth is the worker-pool width of every engine the benchmark
// builds. The joint search simulates its candidates in waves of the
// engine's width, and the width decides which cells are pruned or
// aborted, so fixing it keeps the exact cell counts the same on every
// host; engine.Config's default, the CPU count, would not.
const searchWidth = 2

func newEngine() *engine.Engine { return engine.New(engine.Config{Concurrency: searchWidth}) }

// sweepState is what one plan-sweep set-up builds: a fresh engine, its
// suite and the seeded corpus.
type sweepState struct {
	eng    *engine.Engine
	suite  experiments.Suite
	corpus []searchItem
}

func setupSweep(cfg runCfg) (*sweepState, error) {
	var st sweepState
	var err error
	timed(cfg.tr, "engine", "engine.New", 0, func() {
		st.eng = newEngine()
		st.suite = experiments.NewSuite(st.eng)
	})
	if st.corpus, err = searchCorpus(cfg.seed); err != nil {
		return nil, err
	}
	return &st, nil
}

// cellCounts are the exact work counters of one corpus pass.
type cellCounts struct{ simulated, pruned, aborted, searches uint64 }

func countsOf(a, b engine.SearchStats) cellCounts {
	return cellCounts{b.Simulated - a.Simulated, b.Pruned - a.Pruned, b.Aborted - a.Aborted, b.Searches - a.Searches}
}

// runCorpus runs every search of the corpus on eng, one after another
// (each search fans its candidates out over the engine's workers), and
// checks every winner against the recorded list.
func runCorpus(cfg runCfg, eng *engine.Engine, corpus []searchItem, parent int, out *outcome) ([]float64, cellCounts) {
	before := eng.SearchStats()
	lat := make([]float64, 0, len(corpus))
	for _, it := range corpus {
		var plan *core.Plan
		var err error
		d := timed(cfg.tr, "core", "Planner.SearchPlan", parent, func() {
			var pl *core.Planner
			if pl, err = core.NewPlannerOn(eng, it.topo, model.Group(it.group).Spec); err == nil {
				plan, err = pl.SearchPlan()
			}
		})
		out.attempted++
		lat = append(lat, ms(d))
		if err != nil {
			out.check(false, "search %s: %v", it.key, err)
			continue
		}
		w, ok := expectedWinners[it.key]
		got := winner{plan.Degrees.T, plan.Degrees.P, plan.Report.IterSeconds}
		out.check(ok && got == w, "search %s winner %+v, recorded %+v", it.key, got, w)
	}
	return lat, countsOf(before, eng.SearchStats())
}

// sweepPass is one closed batch on a fresh engine: one Table-3
// regeneration, then the 48-search cold corpus, then a second Table-3
// regeneration on another fresh engine (two cold samples per pass).
type sweepPass struct {
	table3        [2]time.Duration
	search        time.Duration
	perSearch     []float64 // ms
	counts        cellCounts
	allocMB       float64
	worldHitRatio float64
}

func runSweepPass(cfg runCfg, st *sweepState, out *outcome) sweepPass {
	var p sweepPass
	mem := markMem()
	root := cfg.tr.begin("bench", "plan-sweep.pass", 0)
	p.table3[0] = runTable3(cfg, st.suite, root, out)
	t0 := time.Now()
	p.perSearch, p.counts = runCorpus(cfg, st.eng, st.corpus, root, out)
	p.search = time.Since(t0)
	p.table3[1] = runTable3(cfg, experiments.NewSuite(newEngine()), root, out)
	cfg.tr.end(root)
	p.allocMB = mem.allocMB()
	cs := st.eng.CacheStats()
	p.worldHitRatio = ratio(cs.Hits, cs.Hits+cs.Misses)
	return p
}

// meanSearchMS is the pass's corpus time per search. The 48 searches
// differ in cost by more than ten times, so a median over single
// searches jumps between them; the corpus total does not.
func (p sweepPass) meanSearchMS() float64 { return ms(p.search) / float64(len(p.perSearch)) }

// slowTenthMS is the mean time of the pass's slowest tenth of searches.
// Which searches those are is fixed by the corpus, so the figure sums
// the same work on every pass.
func (p sweepPass) slowTenthMS() float64 {
	xs := append([]float64(nil), p.perSearch...)
	sort.Float64s(xs)
	k := max(1, len(xs)/10)
	sum := 0.0
	for _, x := range xs[len(xs)-k:] {
		sum += x
	}
	return sum / float64(k)
}

// runTable3 regenerates Table 3 on the suite and checks the rows
// against the golden ones bit for bit.
func runTable3(cfg runCfg, suite experiments.Suite, parent int, out *outcome) time.Duration {
	var rows []experiments.Row
	var err error
	d := timed(cfg.tr, "experiments", "Suite.Table3", parent, func() { rows, err = suite.Table3() })
	out.attempted++
	if err != nil {
		out.check(false, "table3: %v", err)
	} else {
		out.check(slices.Equal(rows, cfg.golden), "table3 rows differ from %s", goldenTable3)
	}
	return d
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Set-up samples: one plan-sweep set-up takes well under a millisecond,
// too short to time steadily on its own, so each sample times
// setupBatch of them back to back and the figure is the median sample
// divided by setupBatch.
const setupSamples, setupBatch = 11, 100

// planSweep is the closed planning batch. It repeats passes, each on a
// fresh engine, until the run's seconds are spent (at least three), and
// reports each figure as the median over passes.
func planSweep(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var st *sweepState
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		for j := 0; j < setupBatch; j++ {
			s, err := setupSweep(cfg)
			if err != nil {
				return nil, err
			}
			st = s
		}
		setups = append(setups, time.Since(t0).Seconds()/setupBatch)
	}
	var passes []sweepPass
	start := time.Now()
	for len(passes) < 3 || time.Since(start).Seconds() < cfg.seconds {
		if len(passes) > 0 {
			var err error
			if st, err = setupSweep(cfg); err != nil {
				return nil, err
			}
		}
		passes = append(passes, runSweepPass(cfg, st, out))
	}
	live := liveHeapMB()
	runtime.KeepAlive(st)

	var t3, sc, mean, slow, alloc, lat []float64
	for i, p := range passes {
		for _, d := range p.table3 {
			t3 = append(t3, d.Seconds())
		}
		sc = append(sc, p.search.Seconds())
		mean = append(mean, p.meanSearchMS())
		slow = append(slow, p.slowTenthMS())
		alloc = append(alloc, p.allocMB)
		lat = append(lat, p.perSearch...)
		out.check(p.counts == passes[0].counts, "pass %d cell counts %+v differ from pass 0 %+v", i, p.counts, passes[0].counts)
	}
	checkCells(out, passes[0].counts)
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = median(mean)
	out.e2e["tail_ms"] = median(slow)
	out.e2e["batch_s"] = median(t3)
	out.e2e["alloc_mb"] = median(alloc)
	out.e2e["live_heap_mb"] = live
	fillCoreLayer(out, lat, passes[0].counts)
	out.layer["engine.world_hit_ratio"] = passes[len(passes)-1].worldHitRatio

	out.say("setup_s", out.e2e["setup_s"], "s", fmt.Sprintf("median of %d samples of %d set-ups", setupSamples, setupBatch))
	out.say("table3_s", median(t3), "s", fmt.Sprintf("median of %d regenerations, two per pass; reported as batch_s", len(t3)))
	out.say("search_cold_s", median(sc), "s", fmt.Sprintf("48 searches, 748 candidate cells, median of %d passes", len(passes)))
	out.say("search_mean_ms", out.e2e["p50_ms"], "ms", "search_cold_s / 48; reported as p50_ms")
	out.say("search_slow_tenth_ms", out.e2e["tail_ms"], "ms", "mean of the slowest 5 searches; reported as tail_ms")
	out.say("search_p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("over %d single searches", len(lat)))
	out.say("search_p90_ms", quantile(lat, 0.9), "ms", "")
	out.say("alloc_mb", out.e2e["alloc_mb"], "MB", "per pass")
	out.say("live_heap_mb", live, "MB", "")
	return out, nil
}

// fillCoreLayer records the core layer's per-search times and exact
// cell counts.
func fillCoreLayer(out *outcome, lat []float64, c cellCounts) {
	out.layer["core.search_p50_ms"] = median(lat)
	out.layer["core.search_p90_ms"] = quantile(lat, 0.90)
	out.layer["core.cells_simulated"] = float64(c.simulated)
	out.layer["core.cells_pruned"] = float64(c.pruned)
	out.layer["core.cells_aborted"] = float64(c.aborted)
	out.layer["core.useful_share"] = ratio(c.simulated, c.simulated+c.aborted)
}

// checkCells gates the corpus's cell counts exactly against the
// recorded ones.
func checkCells(out *outcome, c cellCounts) {
	out.check(c == expectedCells, "corpus cell counts %+v, recorded %+v", c, expectedCells)
}

// planSweepReach drives the core layer for a traced run of another
// workload: the search corpus once on a fresh engine.
func planSweepReach(cfg runCfg) (*outcome, error) {
	out := newOutcome()
	st, err := setupSweep(cfg)
	if err != nil {
		return nil, err
	}
	root := cfg.tr.begin("bench", "plan-sweep.reach", 0)
	lat, counts := runCorpus(cfg, st.eng, st.corpus, root, out)
	cfg.tr.end(root)
	checkCells(out, counts)
	fillCoreLayer(out, lat, counts)
	return out, nil
}

// checkCellsAtOneProc reruns the corpus, untraced, on one OS thread
// (GOMAXPROCS=1) with the same search width. The search's waves then
// run their simulations one after another instead of side by side, so
// equal counts show that the outcome of every cell depends on the wave
// width alone and not on how the wave's goroutines interleave. It also
// runs the corpus at width 1 and checks those counts, which are the
// ones a one-CPU host's default engine produces.
func checkCellsAtOneProc(cfg runCfg, out *outcome) error {
	untraced := runCfg{seed: cfg.seed, golden: cfg.golden}
	st, err := setupSweep(untraced)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	probe := newOutcome()
	_, c := runCorpus(untraced, st.eng, st.corpus, 0, probe)
	runtime.GOMAXPROCS(prev)
	out.merge("gomaxprocs1", probe)
	at := cellCounts{
		simulated: uint64(out.layer["core.cells_simulated"]),
		pruned:    uint64(out.layer["core.cells_pruned"]),
		aborted:   uint64(out.layer["core.cells_aborted"]),
		searches:  c.searches,
	}
	out.check(c == at, "cell counts at GOMAXPROCS=1 %+v differ from GOMAXPROCS=%d %+v", c, prev, at)
	out.say("gomaxprocs1.cells", float64(c.simulated+c.pruned+c.aborted), "count",
		fmt.Sprintf("simulated/pruned/aborted %d/%d/%d at GOMAXPROCS=1, width %d", c.simulated, c.pruned, c.aborted, searchWidth))

	eng1 := engine.New(engine.Config{Concurrency: 1})
	probe = newOutcome()
	_, c1 := runCorpus(untraced, eng1, st.corpus, 0, probe)
	out.merge("width1", probe)
	out.check(c1 == expectedCellsWidth1, "cell counts at width 1 %+v, recorded %+v", c1, expectedCellsWidth1)
	out.say("width1.cells", float64(c1.simulated+c1.pruned+c1.aborted), "count",
		fmt.Sprintf("simulated/pruned/aborted %d/%d/%d at search width 1", c1.simulated, c1.pruned, c1.aborted))
	return nil
}
