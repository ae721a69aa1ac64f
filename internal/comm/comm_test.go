package comm

import (
	"fmt"
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/parallel"
	"holmes/internal/topology"
)

// Validate checks the §3.2 postconditions of an auto-selected world:
// DP groups on RDMA wherever their cluster provides it, cross-cluster PP
// on Ethernet, TP within nodes.
func (w *World) Validate() error {
	for _, g := range w.TPGroups {
		if g.CrossNode {
			return fmt.Errorf("comm: tensor group %d crosses nodes", g.Index)
		}
	}
	if w.Selection != AutoSelection {
		return nil
	}
	for _, g := range w.DPGroups {
		if !g.CrossNode {
			continue
		}
		clusterNIC := w.Topo.NodeOf(g.Ranks[0]).RDMAType()
		if sameCluster(w.Topo, g.Ranks) && clusterNIC.IsRDMA() && g.NIC != clusterNIC {
			return fmt.Errorf("comm: data group %d in %v cluster got %v", g.Index, clusterNIC, g.NIC)
		}
	}
	for _, g := range w.PPGroups {
		if g.CrossNode && !sameCluster(w.Topo, g.Ranks) && g.NIC != topology.Ethernet {
			return fmt.Errorf("comm: cross-cluster pipeline group %d got %v", g.Index, g.NIC)
		}
	}
	return nil
}

// hybridWorld builds the canonical Holmes configuration: hybrid 8-node
// topology (4 IB + 4 RoCE), t=1, p=2 (one stage per cluster), d=32.
func hybridWorld(t *testing.T, sel Selection) *World {
	t.Helper()
	topo := topology.HybridEnv(8)
	a, err := parallel.New(64, 8, parallel.Degrees{T: 1, P: 2, D: 32})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, sel)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAutoSelectionPicksPerClusterRDMA(t *testing.T) {
	w := hybridWorld(t, AutoSelection)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	var ib, roce int
	for _, g := range w.DPGroups {
		switch g.NIC {
		case topology.InfiniBand:
			ib++
		case topology.RoCE:
			roce++
		default:
			t.Fatalf("DP group %d selected %v", g.Index, g.NIC)
		}
		if g.Class != netsim.RDMA {
			t.Fatalf("DP group %d class = %v", g.Index, g.Class)
		}
	}
	// p·t = 2 DP groups: stage 0 in the IB cluster, stage 1 in RoCE.
	if ib != 1 || roce != 1 {
		t.Fatalf("DP NICs: %d IB + %d RoCE, want 1+1", ib, roce)
	}
}

func TestPipelineGroupsUseEthernetAcrossClusters(t *testing.T) {
	w := hybridWorld(t, AutoSelection)
	for _, g := range w.PPGroups {
		if g.NIC != topology.Ethernet || g.Class != netsim.Ether {
			t.Fatalf("pipeline group %d got %v/%v, want Ethernet", g.Index, g.NIC, g.Class)
		}
	}
}

func TestUnifiedSelectionCollapsesToEthernet(t *testing.T) {
	w := hybridWorld(t, UnifiedSelection)
	for _, g := range w.DPGroups {
		if !g.CrossNode {
			continue
		}
		if g.NIC != topology.Ethernet {
			t.Fatalf("unified DP group %d got %v, want Ethernet (mixed IB+RoCE world)", g.Index, g.NIC)
		}
	}
}

func TestUnifiedSelectionKeepsRDMAWhenHomogeneous(t *testing.T) {
	topo := topology.IBEnv(4)
	a, err := parallel.New(32, 8, parallel.Degrees{T: 1, P: 2, D: 16})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, UnifiedSelection)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.DPGroups {
		if g.CrossNode && g.NIC != topology.InfiniBand {
			t.Fatalf("homogeneous unified world should use IB, got %v", g.NIC)
		}
	}
}

func TestTensorGroupsStayIntraNode(t *testing.T) {
	topo := topology.HybridEnv(4)
	a, err := parallel.New(32, 8, parallel.Degrees{T: 8, P: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.TPGroups {
		if g.CrossNode {
			t.Fatalf("tensor group %d crosses nodes: %v", g.Index, g.Ranks)
		}
		if g.Class != netsim.Intra {
			t.Fatalf("tensor group %d class = %v, want Intra", g.Index, g.Class)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWorldSizeMismatch(t *testing.T) {
	topo := topology.IBEnv(2)
	a, _ := parallel.New(8, 8, parallel.Degrees{T: 1, P: 2, D: 4})
	if _, err := BuildWorld(topo, a, AutoSelection); err == nil {
		t.Fatal("16-device topology with 8-rank assignment must fail")
	}
}

func TestGroupCountsMatchFormalization(t *testing.T) {
	// §2.4: t·d pipeline groups, p·d tensor groups, p·t data groups.
	topo := topology.HybridEnv(4)
	deg := parallel.Degrees{T: 2, P: 4, D: 4}
	a, err := parallel.New(32, 8, deg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PPGroups) != deg.T*deg.D {
		t.Fatalf("pipeline groups = %d, want %d", len(w.PPGroups), deg.T*deg.D)
	}
	if len(w.TPGroups) != deg.P*deg.D {
		t.Fatalf("tensor groups = %d, want %d", len(w.TPGroups), deg.P*deg.D)
	}
	if len(w.DPGroups) != deg.P*deg.T {
		t.Fatalf("data groups = %d, want %d", len(w.DPGroups), deg.P*deg.T)
	}
}

func TestKindAndGroupStrings(t *testing.T) {
	if TP.String() != "tensor" || PP.String() != "pipeline" || DP.String() != "data" {
		t.Fatal("kind names wrong")
	}
	g := &Group{Kind: DP, Index: 3, Ranks: []int{1, 2}, NIC: topology.RoCE}
	if got := g.String(); got != "data[3] [1 2] via RoCE" {
		t.Fatalf("Group.String() = %q", got)
	}
}

func TestEthernetOnlyWorld(t *testing.T) {
	topo := topology.EthernetEnv(4)
	a, err := parallel.New(32, 8, parallel.Degrees{T: 1, P: 2, D: 16})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.DPGroups {
		if g.CrossNode && g.NIC != topology.Ethernet {
			t.Fatalf("ethernet-only world gave %v", g.NIC)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}
