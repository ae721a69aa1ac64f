package topology

import (
	"testing"
	"testing/quick"
)

// Devices returns all devices in global rank order.
func (t *Topology) Devices() []*Device { return t.devices }

// Rank implements the paper's global numbering: the j-th device (0-based)
// of the k-th node (0-based) of the i-th cluster (0-based).
func (t *Topology) Rank(cluster, node, device int) int {
	base := 0
	for i := 0; i < cluster; i++ {
		base += len(t.Clusters[i].Nodes)
	}
	return t.GPUsPerNode*(base+node) + device
}

func TestNICTypeProperties(t *testing.T) {
	if !InfiniBand.IsRDMA() || !RoCE.IsRDMA() {
		t.Fatal("IB/RoCE must be RDMA")
	}
	if Ethernet.IsRDMA() {
		t.Fatal("Ethernet must not be RDMA")
	}
	if Compatible(InfiniBand, RoCE) {
		t.Fatal("IB and RoCE are incompatible (§1)")
	}
	if !Compatible(RoCE, RoCE) || !Compatible(InfiniBand, InfiniBand) || !Compatible(Ethernet, Ethernet) {
		t.Fatal("same technologies must be compatible")
	}
	for _, tc := range []struct {
		nt   NICType
		want string
	}{{Ethernet, "Ethernet"}, {InfiniBand, "InfiniBand"}, {RoCE, "RoCE"}} {
		if tc.nt.String() != tc.want {
			t.Fatalf("String() = %q, want %q", tc.nt.String(), tc.want)
		}
	}
}

func TestBuildSingleCluster(t *testing.T) {
	topo := IBEnv(4)
	if topo.NumClusters() != 1 || topo.NumNodes() != 4 || topo.NumDevices() != 32 {
		t.Fatalf("got %d clusters %d nodes %d devices", topo.NumClusters(), topo.NumNodes(), topo.NumDevices())
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	n0 := topo.Node(0)
	if got := n0.RDMAType(); got != InfiniBand {
		t.Fatalf("RDMAType = %v", got)
	}
	if got := n0.RDMAGbps(); got != 800 {
		t.Fatalf("IB node aggregate = %v Gb/s, want 800 (4×200)", got)
	}
}

func TestBuildRoCENICAsymmetry(t *testing.T) {
	ib, roce := IBEnv(1).Node(0), RoCEEnv(1).Node(0)
	if ib.RDMAGbps() <= roce.RDMAGbps() {
		t.Fatalf("IB aggregate (%v) must exceed RoCE aggregate (%v): 4 vs 2 NICs",
			ib.RDMAGbps(), roce.RDMAGbps())
	}
	if roce.RDMAGbps() != 400 {
		t.Fatalf("RoCE node aggregate = %v, want 400 (2×200)", roce.RDMAGbps())
	}
}

func TestEthernetEnvHasNoRDMA(t *testing.T) {
	topo := EthernetEnv(2)
	for _, n := range topo.Nodes() {
		if n.RDMAType() != Ethernet || n.RDMAGbps() != 0 {
			t.Fatalf("ethernet node has RDMA: %v %v", n.RDMAType(), n.RDMAGbps())
		}
		if n.EthNIC.Gbps != 25 {
			t.Fatalf("EthNIC = %v Gb/s, want 25", n.EthNIC.Gbps)
		}
	}
}

func TestHybridEnv(t *testing.T) {
	topo := HybridEnv(8)
	if topo.NumClusters() != 2 {
		t.Fatalf("clusters = %d", topo.NumClusters())
	}
	if topo.Clusters[0].NICType != InfiniBand || topo.Clusters[1].NICType != RoCE {
		t.Fatal("hybrid must be IB cluster + RoCE cluster")
	}
	if len(topo.Clusters[0].Nodes) != 4 || len(topo.Clusters[1].Nodes) != 4 {
		t.Fatal("hybrid must split nodes evenly")
	}
	// Cross-cluster ranks fall back to Ethernet.
	a := topo.Clusters[0].Nodes[0].Devices[0].Rank
	b := topo.Clusters[1].Nodes[0].Devices[0].Rank
	if got := topo.BestCommonNIC(a, b); got != Ethernet {
		t.Fatalf("cross-cluster NIC = %v, want Ethernet", got)
	}
	// Intra-cluster cross-node ranks use the cluster RDMA.
	c := topo.Clusters[0].Nodes[1].Devices[0].Rank
	if got := topo.BestCommonNIC(a, c); got != InfiniBand {
		t.Fatalf("intra-IB-cluster NIC = %v, want InfiniBand", got)
	}
	d := topo.Clusters[1].Nodes[1].Devices[3].Rank
	if got := topo.BestCommonNIC(b, d); got != RoCE {
		t.Fatalf("intra-RoCE-cluster NIC = %v, want RoCE", got)
	}
}

func TestHybridOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HybridEnv(3) did not panic")
		}
	}()
	HybridEnv(3)
}

func TestRankNumberingMatchesPaper(t *testing.T) {
	// 2 clusters × 2 nodes × 4 GPUs, as in Figure 3 of the paper.
	topo := MustBuild(Spec{
		GPUsPerNode: 4,
		Clusters: []ClusterSpec{
			{NIC: InfiniBand, Nodes: 2},
			{NIC: RoCE, Nodes: 2},
		},
	})
	// rank(cluster i, node k, device j) = G*((Σ_{a<i} f_a)+k) + j, 0-based.
	cases := []struct{ c, k, j, want int }{
		{0, 0, 0, 0},
		{0, 0, 3, 3},
		{0, 1, 0, 4},
		{1, 0, 0, 8},
		{1, 1, 3, 15},
	}
	for _, tc := range cases {
		if got := topo.Rank(tc.c, tc.k, tc.j); got != tc.want {
			t.Errorf("Rank(%d,%d,%d) = %d, want %d", tc.c, tc.k, tc.j, got, tc.want)
		}
	}
	// Round-trip: device coordinates recover the rank.
	for _, d := range topo.Devices() {
		k := d.Node
		for i := 0; i < d.Cluster; i++ {
			k -= len(topo.Clusters[i].Nodes)
		}
		if got := topo.Rank(d.Cluster, k, d.Local); got != d.Rank {
			t.Fatalf("round trip rank %d -> %d", d.Rank, got)
		}
	}
}

func TestSameNodeSameCluster(t *testing.T) {
	topo := HybridEnv(4)
	if !topo.SameNode(0, 7) || topo.SameNode(0, 8) {
		t.Fatal("SameNode wrong at node boundary")
	}
	if !topo.SameCluster(0, 15) || topo.SameCluster(0, 16) {
		t.Fatal("SameCluster wrong at cluster boundary")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Fatal("empty spec must fail")
	}
	if _, err := Build(Spec{Clusters: []ClusterSpec{{NIC: InfiniBand, Nodes: 0}}}); err == nil {
		t.Fatal("zero-node cluster must fail")
	}
	if _, err := Env("bogus", 4); err == nil {
		t.Fatal("unknown env must fail")
	}
	if _, err := Env(EnvHybrid, 3); err == nil {
		t.Fatal("odd hybrid must fail")
	}
}

func TestEnvBuilders(t *testing.T) {
	for _, name := range AllEnvs {
		n := 4
		topo, err := Env(name, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if topo.NumNodes() != n {
			t.Fatalf("%s: nodes = %d", name, topo.NumNodes())
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Property: ranks are dense, 0..N-1, in cluster-major node-major order, for
// arbitrary cluster shapes.
func TestRankDensityProperty(t *testing.T) {
	f := func(sizes []uint8, g uint8) bool {
		gpus := int(g%8) + 1
		var specs []ClusterSpec
		for i, s := range sizes {
			nodes := int(s%5) + 1
			nic := []NICType{InfiniBand, RoCE, Ethernet}[i%3]
			specs = append(specs, ClusterSpec{NIC: nic, Nodes: nodes})
			if len(specs) == 5 {
				break
			}
		}
		if len(specs) == 0 {
			return true
		}
		topo, err := Build(Spec{Clusters: specs, GPUsPerNode: gpus})
		if err != nil {
			return false
		}
		if topo.Validate() != nil {
			return false
		}
		for i, d := range topo.Devices() {
			if d.Rank != i {
				return false
			}
		}
		// Cross-check Rank() against the flattened order.
		for ci, c := range topo.Clusters {
			for k := range c.Nodes {
				for j := 0; j < gpus; j++ {
					r := topo.Rank(ci, k, j)
					d := topo.Device(r)
					if d.Cluster != ci || d.Local != j {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := HybridEnv(4).String()
	for _, want := range []string{"2 cluster(s)", "InfiniBand", "RoCE"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
