// Package comm establishes communication groups ("communicators") for the
// parallel groups of an assignment, implementing the paper's Automatic NIC
// Selection (§3.2):
//
//   - every tensor-parallel group gets an intra-node channel (NVLink/PCIe);
//   - every pipeline-parallel group gets an Ethernet channel between
//     stages (the only technology that crosses cluster boundaries);
//   - every data-parallel group gets an independent channel on the RDMA
//     fabric of the cluster it lives in — IB groups pick IB, RoCE groups
//     pick RoCE — rather than one unified (lowest-common-denominator)
//     environment for all groups.
//
// The traditional behaviour of Megatron-LM and Megatron-DeepSpeed — a
// single communication environment shared by every group, which collapses
// to Ethernet as soon as any pair of devices lacks a common RDMA fabric —
// is retained as a baseline via BuildWorld(..., UnifiedSelection).
package comm

import (
	"fmt"

	"holmes/internal/netsim"
	"holmes/internal/parallel"
	"holmes/internal/topology"
)

// Kind labels the parallelism a group serves.
type Kind int

const (
	TP Kind = iota
	PP
	DP
)

// String names the group kind.
func (k Kind) String() string {
	switch k {
	case TP:
		return "tensor"
	case PP:
		return "pipeline"
	case DP:
		return "data"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Selection is the NIC-selection policy.
type Selection int

const (
	// AutoSelection is Holmes's per-group Automatic NIC Selection.
	AutoSelection Selection = iota
	// UnifiedSelection is the traditional single-environment policy: every
	// group uses the one technology all devices share.
	UnifiedSelection
)

// Group is one communicator: a parallel group bound to a network class.
type Group struct {
	Kind  Kind
	Index int
	Ranks []int
	// NIC is the technology the channel was established on.
	NIC topology.NICType
	// Class is the netsim class flows of this group use.
	Class netsim.Class
	// CrossNode reports whether the group leaves a node at all.
	CrossNode bool
}

func (g *Group) String() string {
	return fmt.Sprintf("%s[%d] %v via %v", g.Kind, g.Index, g.Ranks, g.NIC)
}

// World is the full set of communicators for a job.
type World struct {
	Topo      *topology.Topology
	Assign    *parallel.Assignment
	Selection Selection
	TPGroups  []*Group
	PPGroups  []*Group
	DPGroups  []*Group
}

// BuildWorld creates communicators for every parallel group under the
// given NIC-selection policy.
func BuildWorld(topo *topology.Topology, a *parallel.Assignment, sel Selection) (*World, error) {
	if topo.NumDevices() != a.N {
		return nil, fmt.Errorf("comm: topology N=%d, assignment N=%d", topo.NumDevices(), a.N)
	}
	w := &World{Topo: topo, Assign: a, Selection: sel}
	unified := unifiedNIC(topo)
	for i, ranks := range a.TP {
		w.TPGroups = append(w.TPGroups, buildGroup(topo, TP, i, ranks, sel, unified))
	}
	for i, ranks := range a.PP {
		g := buildGroup(topo, PP, i, ranks, sel, unified)
		if sel == AutoSelection && g.CrossNode {
			// §3.2: pipeline channels are established on Ethernet — the
			// universal technology — so stages may cross clusters freely.
			// (Within one cluster the fabric would allow RDMA, but the
			// pipeline's low communication volume does not repay burning
			// RDMA credits; Holmes reserves RDMA for data parallelism.)
			if !sameCluster(topo, ranks) {
				g.NIC = topology.Ethernet
				g.Class = netsim.Ether
			}
		}
		w.PPGroups = append(w.PPGroups, g)
	}
	for i, ranks := range a.DP {
		w.DPGroups = append(w.DPGroups, buildGroup(topo, DP, i, ranks, sel, unified))
	}
	return w, nil
}

func buildGroup(topo *topology.Topology, kind Kind, idx int, ranks []int, sel Selection, unified topology.NICType) *Group {
	nic, cross := parallel.GroupNIC(topo, ranks)
	g := &Group{Kind: kind, Index: idx, Ranks: append([]int(nil), ranks...), CrossNode: cross}
	if !cross {
		// Intra-node traffic rides NVLink/PCIe regardless of policy.
		g.NIC = topo.NodeOf(ranks[0]).RDMAType()
		g.Class = netsim.Intra
		return g
	}
	if sel == UnifiedSelection {
		nic = unified
	}
	g.NIC = nic
	if nic.IsRDMA() {
		g.Class = netsim.RDMA
	} else {
		g.Class = netsim.Ether
	}
	return g
}

// unifiedNIC returns the single technology a traditional framework would
// pick for the whole world: the common RDMA type if every node shares one,
// Ethernet otherwise. This is the §3.2 failure mode: "communication
// between the two devices is limited to Ethernet, failing to fully utilize
// high-speed NICs".
func unifiedNIC(topo *topology.Topology) topology.NICType {
	first := topo.Nodes()[0].RDMAType()
	if !first.IsRDMA() {
		return topology.Ethernet
	}
	for _, n := range topo.Nodes()[1:] {
		if n.RDMAType() != first {
			return topology.Ethernet
		}
	}
	return first
}

func sameCluster(topo *topology.Topology, ranks []int) bool {
	for _, r := range ranks[1:] {
		if !topo.SameCluster(ranks[0], r) {
			return false
		}
	}
	return true
}
