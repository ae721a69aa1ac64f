package partition

import (
	"fmt"
	"math"
)

// The bottleneck-minimizing partition: the oracle the Uniform and
// Self-Adapting partitions are measured against.

// Optimal exhaustively minimizes the pipeline bottleneck max_j(N_j / S_j)
// subject to per-stage memory caps. It is exponential in p and meant for
// p ≤ 8 as an ablation oracle; larger p falls back to a balanced greedy.
func Optimal(layers int, stages []Stage) (Result, error) {
	p := len(stages)
	if p == 0 || layers < p {
		return Result{}, fmt.Errorf("partition: cannot split %d layers into %d stages", layers, p)
	}
	for j, s := range stages {
		if s.Speed <= 0 {
			return Result{}, fmt.Errorf("partition: stage %d has speed %v", j, s.Speed)
		}
	}
	if p > 8 {
		return greedyBalanced(layers, stages)
	}
	best := math.Inf(1)
	bestAlloc := make([]int, p)
	cur := make([]int, p)
	var rec func(j, left int, worst float64)
	rec = func(j, left int, worst float64) {
		if worst >= best {
			return
		}
		if j == p-1 {
			if stages[j].MaxLayers > 0 && left > stages[j].MaxLayers {
				return
			}
			w := worst
			if t := float64(left) / stages[j].Speed; t > w {
				w = t
			}
			if w < best {
				best = w
				cur[j] = left
				copy(bestAlloc, cur)
			}
			return
		}
		maxHere := left - (p - 1 - j)
		if stages[j].MaxLayers > 0 && stages[j].MaxLayers < maxHere {
			maxHere = stages[j].MaxLayers
		}
		for n := 1; n <= maxHere; n++ {
			cur[j] = n
			w := worst
			if t := float64(n) / stages[j].Speed; t > w {
				w = t
			}
			rec(j+1, left-n, w)
		}
	}
	rec(0, layers, 0)
	if math.IsInf(best, 1) {
		return Result{}, fmt.Errorf("partition: no feasible allocation under memory caps")
	}
	return Result{Layers: bestAlloc, Strategy: "optimal"}, nil
}

// greedyBalanced assigns layers one at a time to the stage whose
// bottleneck time would grow the least.
func greedyBalanced(layers int, stages []Stage) (Result, error) {
	p := len(stages)
	out := make([]int, p)
	for j := range out {
		out[j] = 1
	}
	for n := p; n < layers; n++ {
		bestJ, bestT := -1, math.Inf(1)
		for j, s := range stages {
			if s.MaxLayers > 0 && out[j] >= s.MaxLayers {
				continue
			}
			if t := float64(out[j]+1) / s.Speed; t < bestT {
				bestT, bestJ = t, j
			}
		}
		if bestJ < 0 {
			return Result{}, fmt.Errorf("partition: memory caps too tight")
		}
		out[bestJ]++
	}
	return Result{Layers: out, Strategy: "optimal"}, nil
}

// BottleneckTime returns max_j layers_j / speed_j — the per-micro-batch
// pipeline beat a partition induces.
func BottleneckTime(r Result, stages []Stage) float64 {
	worst := 0.0
	for j, l := range r.Layers {
		if t := float64(l) / stages[j].Speed; t > worst {
			worst = t
		}
	}
	return worst
}
