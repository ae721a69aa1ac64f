package collective

import (
	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// The stepped ring collectives: every ring round is a synchronized
// barrier of flows. They are the reference the fluid collectives are
// checked against (fluid_test.go), and the analytic α–β ring model below
// (Patarasuk & Yuan) is the reference they are checked against in turn.

// maxEdge returns the slowest hop time for moving chunk bytes between
// consecutive ring members.
func maxEdge(fab *netsim.Fabric, r []int, chunk float64, class netsim.Class) float64 {
	worst := 0.0
	for i := range r {
		src, dst := r[i], r[(i+1)%len(r)]
		if t := fab.TransferTime(src, dst, chunk, class); t > worst {
			worst = t
		}
	}
	return worst
}

// CostAllReduce estimates a ring all-reduce of the given payload: 2(n−1)
// steps each moving bytes/n per rank; every step is gated by the slowest
// edge of the ring.
func CostAllReduce(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	validate(ranks)
	n := len(ranks)
	if n == 1 {
		return 0
	}
	r := ring(ranks)
	chunk := bytes / float64(n)
	return float64(2*(n-1)) * maxEdge(fab, r, chunk, class)
}

// CostReduceScatter estimates the reduce-scatter half of the ring: (n−1)
// steps of bytes/n. This is the paper's "grads-reduce-scatter" operation
// (Figure 4).
func CostReduceScatter(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	validate(ranks)
	n := len(ranks)
	if n == 1 {
		return 0
	}
	r := ring(ranks)
	chunk := bytes / float64(n)
	return float64(n-1) * maxEdge(fab, r, chunk, class)
}

// CostAllGather estimates the all-gather half of the ring: (n−1) steps of
// bytes/n.
func CostAllGather(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	return CostReduceScatter(fab, ranks, bytes, class) // identical step structure
}

// RunRing executes `steps` ring rounds on the fabric, each rank sending
// chunk bytes to its successor, and invokes onDone when the final round
// completes. It is the building block of the stepped collectives.
func RunRing(eng *sim.Engine, fab *netsim.Fabric, ranks []int, steps int, chunk float64, class netsim.Class, onDone func()) {
	validate(ranks)
	r := ring(ranks)
	n := len(r)
	if n == 1 || steps == 0 {
		eng.After(0, onDone)
		return
	}
	var round func(s int)
	round = func(s int) {
		if s == steps {
			onDone()
			return
		}
		var wg sim.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			src, dst := r[i], r[(i+1)%n]
			fab.StartFlow(src, dst, chunk, class, wg.Done)
		}
		wg.OnZero(func() { round(s + 1) })
	}
	round(0)
}

// RunAllReduce executes a ring all-reduce as 2(n−1) DES rounds.
func RunAllReduce(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	chunk := 0.0
	if n > 0 {
		chunk = bytes / float64(n)
	}
	RunRing(eng, fab, ranks, 2*(n-1), chunk, class, onDone)
}

// RunReduceScatter executes the reduce-scatter half: (n−1) rounds.
func RunReduceScatter(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	chunk := 0.0
	if n > 0 {
		chunk = bytes / float64(n)
	}
	RunRing(eng, fab, ranks, n-1, chunk, class, onDone)
}

// RunAllGather executes the all-gather half: (n−1) rounds.
func RunAllGather(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	RunReduceScatter(eng, fab, ranks, bytes, class, onDone)
}
