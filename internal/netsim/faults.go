package netsim

import "fmt"

// Fault injection.
//
// The paper assumes stable links and always-on devices and names fault
// handling as future work (§1, Limitations). The simulator nevertheless
// supports degrading and restoring links mid-run so schedulers can be
// stress-tested: rates of in-flight flows are re-balanced immediately,
// exactly as a real congestion event would slow transfers already on the
// wire.

// linkFor resolves a node's directional link of a class.
func (f *Fabric) linkFor(nodeIdx int, class Class, inbound bool) *Link {
	switch class {
	case Intra:
		return f.nodeIntra[nodeIdx]
	case RDMA:
		if inbound {
			return f.nodeRDMAIn[nodeIdx]
		}
		return f.nodeRDMAOut[nodeIdx]
	default:
		if inbound {
			return f.nodeEthIn[nodeIdx]
		}
		return f.nodeEthOut[nodeIdx]
	}
}

// RestoreNode sets both directions of a node's links of the class to
// explicit capacities (as read by NodeCaps).
func (f *Fabric) RestoreNode(nodeIdx int, class Class, capOut, capIn float64) error {
	if nodeIdx < 0 || nodeIdx >= len(f.nodeEthOut) {
		return fmt.Errorf("netsim: node %d out of range", nodeIdx)
	}
	if capOut < 0 || capIn < 0 {
		return fmt.Errorf("netsim: negative capacity")
	}
	out := f.linkFor(nodeIdx, class, false)
	in := f.linkFor(nodeIdx, class, true)
	out.Capacity = capOut
	in.Capacity = capIn
	f.scheduleLinkRebalance(out, in)
	return nil
}

// FailResidual is the fraction of original capacity a failed link keeps.
// Never exactly zero: a zero-capacity link would stall flows forever
// rather than erroring, and the fluid model has no notion of aborted
// transfers. The residual keeps flows finishing — extremely slowly —
// which is how a flapping-but-alive link behaves. Exported so scenario
// folding can predict a failed or flapped link's capacity exactly.
const FailResidual = 1e-6

// NodeCaps reads the current capacities of a node's links of a class,
// both directions, without changing them.
func (f *Fabric) NodeCaps(nodeIdx int, class Class) (out, in float64, err error) {
	if nodeIdx < 0 || nodeIdx >= len(f.nodeEthOut) {
		return 0, 0, fmt.Errorf("netsim: node %d out of range", nodeIdx)
	}
	return f.linkFor(nodeIdx, class, false).Capacity, f.linkFor(nodeIdx, class, true).Capacity, nil
}
