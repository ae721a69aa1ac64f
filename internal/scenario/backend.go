package scenario

import (
	"fmt"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

// Background-traffic generation constants. A stream is modelled as
// back-to-back rate-capped chunks rather than one unbounded flow: each
// chunk completion is a scheduling point, so the stream reacts to
// congestion and to Until/Stop, while the per-flow cap keeps the offered
// load at the scripted rate when the path is uncongested.
const (
	// bgChunkSeconds is the chunk length of a rate-limited stream, in
	// seconds of offered traffic.
	bgChunkSeconds = 0.05
	// bgGreedyChunkBytes is the chunk size of a greedy (Gbps = 0) stream.
	bgGreedyChunkBytes = 64 << 20
)

// StreamCtl is the slice of a bound runtime a streaming backend needs:
// the simulated clock, cancellable scheduling (events it registers die
// with Runtime.Stop), and liveness.
type StreamCtl interface {
	// Now returns the current simulated instant.
	Now() float64
	// Schedule registers fn at a simulated instant; the runtime cancels
	// it on Stop.
	Schedule(at float64, fn func())
	// Live reports whether the runtime is still running (false after
	// Stop); a stream must stop generating when it turns false.
	Live() bool
}

// Backend is the network a scenario timeline manipulates. The runtime
// folds the timeline into absolute target state at every event instant
// and pushes it here, so a backend never needs to track compounding:
// SetNodeFactor(0.5) means "half the bind-time capacity", full stop.
//
// FabricBackend, the one implementation, drives the in-process
// netsim.Fabric.
type Backend interface {
	// Topo is the topology the scenario validates against.
	Topo() *topology.Topology
	// SetNodeFactor scales both directions of one node's class links to
	// factor × their bind-time capacities. Factor 1 restores.
	SetNodeFactor(node int, class netsim.Class, factor float64) error
	// SetTrunkFactor scales the inter-cluster trunk between the pair to
	// factor × its bind-time capacity. Factor 1 restores.
	SetTrunkFactor(c1, c2 int, factor float64) error
	// CheckTrunk reports whether partition events between the pair can
	// take effect (the fabric has a trunk to cut).
	CheckTrunk(c1, c2 int) error
	// ApplyImpairment installs the absolute impairment of one node's
	// class/direction; the zero value clears it.
	ApplyImpairment(node int, class netsim.Class, inbound bool, imp netsim.Impairment) error
	// SeedJitter installs the scenario-owned PRNG seed for jitter draws.
	SeedJitter(seed int64)
	// Stream runs one background_traffic event from its At instant.
	Stream(ev Event, ctl StreamCtl)
}

// FabricBackend applies scenario effects to an in-process netsim.Fabric —
// the default backend. It snapshots each link's capacity the first time
// an event touches it, so factors are always relative to the bind-time
// baseline.
type FabricBackend struct {
	eng       *sim.Engine
	fab       *netsim.Fabric
	baseNode  map[capKey]savedCaps
	baseTrunk map[[2]int]float64
}

type capKey struct {
	node  int
	class netsim.Class
}

type savedCaps struct{ out, in float64 }

// NewFabricBackend wraps a fabric and its engine as a scenario backend.
func NewFabricBackend(eng *sim.Engine, fab *netsim.Fabric) *FabricBackend {
	return &FabricBackend{
		eng:       eng,
		fab:       fab,
		baseNode:  make(map[capKey]savedCaps),
		baseTrunk: make(map[[2]int]float64),
	}
}

// Topo implements Backend.
func (b *FabricBackend) Topo() *topology.Topology { return b.fab.Topo }

// SetNodeFactor implements Backend against the live fabric.
func (b *FabricBackend) SetNodeFactor(node int, class netsim.Class, factor float64) error {
	key := capKey{node: node, class: class}
	base, touched := b.baseNode[key]
	if !touched {
		if factor == 1 {
			return nil // restoring an untouched link: nothing to do
		}
		out, in, err := b.fab.NodeCaps(node, class)
		if err != nil {
			return err
		}
		base = savedCaps{out: out, in: in}
		b.baseNode[key] = base
	}
	return b.fab.RestoreNode(node, class, base.out*factor, base.in*factor)
}

// SetTrunkFactor implements Backend against the live fabric.
func (b *FabricBackend) SetTrunkFactor(c1, c2 int, factor float64) error {
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	key := [2]int{c1, c2}
	base, touched := b.baseTrunk[key]
	if !touched {
		if factor == 1 {
			return nil
		}
		cap, ok := b.fab.TrunkBandwidth(c1, c2)
		if !ok {
			return fmt.Errorf("scenario: no trunk between clusters %d and %d", c1, c2)
		}
		base = cap
		b.baseTrunk[key] = base
	}
	return b.fab.RestoreTrunk(c1, c2, base*factor)
}

// CheckTrunk implements Backend: a partition needs a trunk to cut.
func (b *FabricBackend) CheckTrunk(c1, c2 int) error {
	if !b.fab.HasTrunk(c1, c2) {
		return fmt.Errorf("scenario: partition %d|%d: the fabric has no inter-cluster trunk to cut (InterClusterGbps = 0)", c1, c2)
	}
	return nil
}

// ApplyImpairment implements Backend.
func (b *FabricBackend) ApplyImpairment(node int, class netsim.Class, inbound bool, imp netsim.Impairment) error {
	return b.fab.SetImpairment(node, class, inbound, imp)
}

// SeedJitter implements Backend.
func (b *FabricBackend) SeedJitter(seed int64) { b.fab.SeedJitter(seed) }

// Stream implements Backend: back-to-back flows between the first device
// of each endpoint node, each chunk capped at the scripted rate, until
// Until (or Stop) ends the stream. The final rate-capped chunk is
// clamped to the bytes the scripted rate can offer before Until, and a
// greedy chunk still on the wire at Until is aborted — so the stream
// never perturbs the fabric past its scripted window no matter how
// congested the path is.
func (b *FabricBackend) Stream(ev Event, ctl StreamCtl) {
	class, err := ev.Class.netClass(netsim.Ether)
	if err != nil {
		panic(fmt.Sprintf("scenario: background_traffic: %v", err))
	}
	g := b.fab.Topo.GPUsPerNode
	src, dst := ev.Src*g, ev.Dst*g
	rate := ev.Gbps / 8 * 1e9 // bytes/s; 0 = greedy
	var inflight *netsim.Flow
	var next func()
	next = func() {
		inflight = nil
		if !ctl.Live() {
			return
		}
		now := ctl.Now()
		if ev.Until > 0 && now >= ev.Until {
			return
		}
		chunk := float64(bgGreedyChunkBytes)
		if rate > 0 {
			chunk = rate * bgChunkSeconds
			if ev.Until > 0 {
				// Clamp the last chunk to what the scripted rate can
				// still offer before the deadline.
				if left := rate * (ev.Until - now); chunk > left {
					chunk = left
				}
			}
			if chunk <= 0 {
				return
			}
		}
		inflight = b.fab.StartFlowRateCapped(src, dst, chunk, class, rate, next)
	}
	next()
	if ev.Until > 0 {
		ctl.Schedule(ev.Until, func() {
			// A rate-capped final chunk was clamped to end at Until on
			// an uncongested path; whatever is still in flight — a
			// greedy chunk, or a clamped chunk stalled by congestion —
			// is cut off at the deadline.
			if inflight != nil {
				b.fab.AbortFlow(inflight)
			}
		})
	}
}
