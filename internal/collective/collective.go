// Package collective executes the ring collectives of data-parallel
// training — reduce-scatter and all-gather, the two halves of a ring
// all-reduce (Patarasuk & Yuan's bandwidth-optimal ring, cited by the
// paper) — as fluid flows on the netsim fabric, so that contention
// between concurrent groups (e.g. many data-parallel rings sharing one
// NIC) emerges naturally. The package tests keep a stepped,
// round-by-round ring as the reference the fluid form is checked against.
package collective

import (
	"fmt"
	"sort"
)

// ring orders the group's ranks; rank order keeps same-node neighbours
// adjacent so that most ring edges ride NVLink and only node-boundary
// edges touch the NIC, as NCCL's ring construction does.
func ring(ranks []int) []int {
	r := append([]int(nil), ranks...)
	sort.Ints(r)
	return r
}

// validate rejects degenerate groups.
func validate(ranks []int) {
	if len(ranks) == 0 {
		panic("collective: empty group")
	}
	seen := make(map[int]struct{}, len(ranks))
	for _, r := range ranks {
		if _, dup := seen[r]; dup {
			panic(fmt.Sprintf("collective: duplicate rank %d in group", r))
		}
		seen[r] = struct{}{}
	}
}
