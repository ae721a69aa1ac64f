package collective

import (
	"math"
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

func fabric(topo *topology.Topology) (*sim.Engine, *netsim.Fabric) {
	eng := sim.NewEngine()
	return eng, netsim.New(eng, topo, netsim.DefaultParams())
}

func groupOfNodeLeads(topo *topology.Topology, nodes int) []int {
	var ranks []int
	for i := 0; i < nodes; i++ {
		ranks = append(ranks, topo.Node(i).Devices[0].Rank)
	}
	return ranks
}

func TestCostAllReduceSingletonIsFree(t *testing.T) {
	_, fab := fabric(topology.IBEnv(1))
	if got := CostAllReduce(fab, []int{3}, 1e9, netsim.RDMA); got != 0 {
		t.Fatalf("singleton all-reduce = %v", got)
	}
}

func TestCostAllReduceIsTwiceReduceScatter(t *testing.T) {
	topo := topology.IBEnv(4)
	_, fab := fabric(topo)
	g := groupOfNodeLeads(topo, 4)
	ar := CostAllReduce(fab, g, 1e9, netsim.RDMA)
	rs := CostReduceScatter(fab, g, 1e9, netsim.RDMA)
	ag := CostAllGather(fab, g, 1e9, netsim.RDMA)
	if math.Abs(ar-(rs+ag)) > 1e-12 {
		t.Fatalf("all-reduce %v != reduce-scatter %v + all-gather %v", ar, rs, ag)
	}
}

func TestCostOrderingAcrossNICs(t *testing.T) {
	bytes := 2e9
	group := func(topo *topology.Topology) []int { return groupOfNodeLeads(topo, 4) }

	_, fabIB := fabric(topology.IBEnv(4))
	_, fabRo := fabric(topology.RoCEEnv(4))
	_, fabEth := fabric(topology.EthernetEnv(4))

	ib := CostAllReduce(fabIB, group(fabIB.Topo), bytes, netsim.RDMA)
	ro := CostAllReduce(fabRo, group(fabRo.Topo), bytes, netsim.RDMA)
	eth := CostAllReduce(fabEth, group(fabEth.Topo), bytes, netsim.RDMA)
	if !(ib < ro && ro < eth) {
		t.Fatalf("cost ordering violated: ib=%v roce=%v eth=%v", ib, ro, eth)
	}
}

func TestCrossClusterGroupPaysEthernet(t *testing.T) {
	topo := topology.HybridEnv(4)
	_, fab := fabric(topo)
	// A group spanning both clusters degrades its slowest edges to Ethernet.
	span := []int{0, 8, 16, 24} // 2 IB nodes + 2 RoCE nodes
	within := []int{0, 8}       // IB only
	spanCost := CostAllReduce(fab, span, 1e9, netsim.RDMA)
	withinCost := CostAllReduce(fab, within, 1e9, netsim.RDMA)
	if spanCost < 10*withinCost {
		t.Fatalf("cross-cluster all-reduce %v should dwarf intra-IB %v", spanCost, withinCost)
	}
}

func TestRunMatchesCostForLoneCollective(t *testing.T) {
	topo := topology.IBEnv(4)
	eng, fab := fabric(topo)
	g := groupOfNodeLeads(topo, 4)
	bytes := 8e8
	var done sim.Time = -1
	RunAllReduce(eng, fab, g, bytes, netsim.RDMA, func() { done = eng.Now() })
	eng.Run()
	want := CostAllReduce(fab, g, bytes, netsim.RDMA)
	// The DES pays per-round latency via flow admission; allow small slack.
	if done < want*0.99 || done > want*1.2 {
		t.Fatalf("DES all-reduce %v vs analytic %v", done, want)
	}
}

func TestRunReduceScatterShorterThanAllReduce(t *testing.T) {
	topo := topology.RoCEEnv(4)
	eng, fab := fabric(topo)
	g := groupOfNodeLeads(topo, 4)
	var rsT, arT sim.Time
	RunReduceScatter(eng, fab, g, 1e9, netsim.RDMA, func() { rsT = eng.Now() })
	eng.Run()
	eng.Reset()
	fab2 := netsim.New(eng, topo, netsim.DefaultParams())
	RunAllReduce(eng, fab2, g, 1e9, netsim.RDMA, func() { arT = eng.Now() })
	eng.Run()
	if rsT >= arT {
		t.Fatalf("reduce-scatter %v must be faster than all-reduce %v", rsT, arT)
	}
	if ratio := rsT / arT; math.Abs(ratio-0.5) > 0.1 {
		t.Fatalf("reduce-scatter/all-reduce ratio %v, want ~0.5", ratio)
	}
}

func TestConcurrentRingsContend(t *testing.T) {
	// Two all-reduces over the same nodes take about twice as long as one:
	// they share the per-node NIC links.
	topo := topology.IBEnv(2)
	eng, fab := fabric(topo)
	g1 := []int{0, 8}
	g2 := []int{1, 9}
	bytes := 1e9
	var lone sim.Time
	RunAllReduce(eng, fab, g1, bytes, netsim.RDMA, func() { lone = eng.Now() })
	eng.Run()

	eng.Reset()
	fab = netsim.New(eng, topo, netsim.DefaultParams())
	var wg sim.WaitGroup
	wg.Add(2)
	var both sim.Time
	done := func() { wg.Done() }
	RunAllReduce(eng, fab, g1, bytes, netsim.RDMA, done)
	RunAllReduce(eng, fab, g2, bytes, netsim.RDMA, done)
	wg.OnZero(func() { both = eng.Now() })
	eng.Run()

	if both < lone*1.8 || both > lone*2.3 {
		t.Fatalf("two concurrent rings took %v, lone ring %v (want ~2x)", both, lone)
	}
}

func TestValidationPanics(t *testing.T) {
	eng, fab := fabric(topology.IBEnv(1))
	for name, ranks := range map[string][]int{
		"empty":     nil,
		"duplicate": {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s group did not panic", name)
				}
			}()
			RunRingFluid(eng, fab, ranks, 1, netsim.RDMA, func() {})
		}()
	}
}

func TestRingKeepsNodeNeighborsAdjacent(t *testing.T) {
	// An unsorted group must still form a rank-ordered ring so intra-node
	// pairs ride NVLink: a shuffled group finishes exactly when the sorted
	// one does.
	topo := topology.IBEnv(2)
	run := func(ranks []int) sim.Time {
		eng, fab := fabric(topo)
		var end sim.Time
		RunRingFluid(eng, fab, ranks, 1e9, netsim.RDMA, func() { end = eng.Now() })
		eng.Run()
		return end
	}
	if a, b := run([]int{0, 1, 8, 9}), run([]int{9, 0, 8, 1}); a != b {
		t.Fatalf("ring must canonicalize order: %v vs %v", a, b)
	}
}
