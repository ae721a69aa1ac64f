package collective

import (
	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// Fluid collective execution.
//
// A stepped ring models every ring round as a synchronized barrier of
// flows — faithful, but O(n·rounds) flows per collective, which
// is too heavy inside a full training-iteration simulation where dozens of
// collectives overlap a pipeline schedule. The fluid variants collapse a
// ring collective into one flow per directed ring edge carrying the
// edge's *total* traffic for the whole operation. Under max-min sharing
// this matches the fluid limit of a ring (whose progress is continuously
// governed by its slowest edge) while exposing exactly the same aggregate
// load to competing traffic on shared NICs.

// RunRingFluid places one flow of perEdgeBytes on every directed ring edge
// and fires onDone when the slowest completes.
func RunRingFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, perEdgeBytes float64, class netsim.Class, onDone func()) {
	validate(ranks)
	r := ring(ranks)
	n := len(r)
	if n == 1 || perEdgeBytes <= 0 {
		eng.After(0, onDone)
		return
	}
	var wg sim.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		src, dst := r[i], r[(i+1)%n]
		fab.StartFlow(src, dst, perEdgeBytes, class, wg.Done)
	}
	wg.OnZero(onDone)
}

// RunReduceScatterFluid executes the reduce-scatter half: (n−1)/n · bytes
// per edge.
func RunReduceScatterFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	per := 0.0
	if n > 1 {
		per = float64(n-1) / float64(n) * bytes
	}
	RunRingFluid(eng, fab, ranks, per, class, onDone)
}

// RunAllGatherFluid executes the all-gather half; identical edge traffic
// to reduce-scatter.
func RunAllGatherFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	RunReduceScatterFluid(eng, fab, ranks, bytes, class, onDone)
}
