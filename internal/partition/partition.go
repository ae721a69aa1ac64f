// Package partition implements the pipeline stage-division strategies of
// the paper (§3.3): the traditional Uniform partition, Holmes's
// Self-Adapting Pipeline Partition (Eq. 4–5) driven by per-stage device
// speeds and the α hyper-parameter. The package tests keep an exhaustive
// bottleneck-minimizing partition as the oracle both are checked against.
//
// A partition assigns every transformer layer to exactly one pipeline
// stage: the result is a slice of per-stage layer counts summing to the
// model's layer count, every stage non-empty.
package partition

import (
	"fmt"
	"math"
	"sort"
)

// Result is a stage division: Layers[j] layers on stage j.
type Result struct {
	Layers []int
	// Strategy names the producing algorithm ("uniform", "self-adapting",
	// "forced").
	Strategy string
}

// Validate checks structural invariants: positive per-stage counts and the
// expected total.
func (r Result) Validate(totalLayers int) error {
	if len(r.Layers) == 0 {
		return fmt.Errorf("partition: no stages")
	}
	sum := 0
	for j, l := range r.Layers {
		if l <= 0 {
			return fmt.Errorf("partition: stage %d has %d layers", j, l)
		}
		sum += l
	}
	if sum != totalLayers {
		return fmt.Errorf("partition: layers sum to %d, want %d", sum, totalLayers)
	}
	return nil
}

func (r Result) String() string {
	return fmt.Sprintf("%s%v", r.Strategy, r.Layers)
}

// Uniform divides layers as evenly as possible across p stages (the first
// layers%p stages get one extra layer), the traditional homogeneous-cluster
// strategy.
func Uniform(layers, p int) (Result, error) {
	if p <= 0 || layers < p {
		return Result{}, fmt.Errorf("partition: cannot split %d layers into %d stages", layers, p)
	}
	out := make([]int, p)
	base, extra := layers/p, layers%p
	for j := range out {
		out[j] = base
		if j < extra {
			out[j]++
		}
	}
	return Result{Layers: out, Strategy: "uniform"}, nil
}

// Stage describes one pipeline stage for the self-adapting partition.
type Stage struct {
	// Speed is the effective computational speed of the stage's devices
	// (TFLOPS achievable given their NIC environment) — S(c_i) in Eq. 5.
	Speed float64
	// MaxLayers caps the stage by device memory: the largest layer count
	// with Mem(N_ci) ≤ DMem(c_i). Zero means unconstrained.
	MaxLayers int
	// Alpha is the per-stage tuning knob α_ci of Eq. 5; zero means use the
	// caller's default.
	Alpha float64
}

// SelfAdapting implements Eq. 4–5: stage j receives
//
//	N_j = ⌊ α_j·S_j / ΣS · N ⌋
//
// for all but the last stage, which takes the remainder; allocations are
// then repaired to honour memory caps and non-emptiness. alpha is the
// default α (the paper's experiments use 1.05).
func SelfAdapting(layers int, stages []Stage, alpha float64) (Result, error) {
	p := len(stages)
	if p == 0 || layers < p {
		return Result{}, fmt.Errorf("partition: cannot split %d layers into %d stages", layers, p)
	}
	if alpha <= 0 {
		return Result{}, fmt.Errorf("partition: non-positive alpha %v", alpha)
	}
	var sum float64
	for j, s := range stages {
		if s.Speed <= 0 || math.IsNaN(s.Speed) {
			return Result{}, fmt.Errorf("partition: stage %d has speed %v", j, s.Speed)
		}
		sum += s.Speed
	}
	// Eq. 4/5: stage j targets α_j·S_j/ΣS·N layers; non-residual stages
	// take the floor. The paper's two-stage case hands the remainder to
	// the slow stage (N_roce = N − N_ib); for general p we settle the
	// residue by largest-remainder, breaking ties towards faster stages —
	// floors of α-boosted fast stages already hold their boost, so the
	// residue lands where the fractional claim is strongest rather than
	// as a windfall for the slowest stage.
	out := make([]int, p)
	frac := make([]float64, p)
	used := 0
	for j := 0; j < p; j++ {
		a := stages[j].Alpha
		if a == 0 {
			a = alpha
		}
		target := a * stages[j].Speed / sum * float64(layers)
		nj := int(math.Floor(target))
		if nj < 1 {
			nj = 1
		}
		frac[j] = target - float64(nj)
		out[j] = nj
		used += nj
	}
	order := make([]int, p)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		if frac[order[a]] != frac[order[b]] {
			return frac[order[a]] > frac[order[b]]
		}
		return stages[order[a]].Speed > stages[order[b]].Speed
	})
	for used < layers {
		for _, j := range order {
			if used == layers {
				break
			}
			out[j]++
			used++
		}
	}
	// α > 1 can over-claim; shave the excess from the slowest stages
	// (ties: the stage with the weakest α claim, then the latest stage).
	for used > layers {
		victim := -1
		for j := 0; j < p; j++ {
			if out[j] <= 1 {
				continue
			}
			if victim < 0 || worseClaim(stages, alpha, j, victim) {
				victim = j
			}
		}
		if victim < 0 {
			return Result{}, fmt.Errorf("partition: cannot shave %d excess layers", used-layers)
		}
		out[victim]--
		used--
	}
	if err := repairMemory(out, stages); err != nil {
		return Result{}, err
	}
	return Result{Layers: out, Strategy: "self-adapting"}, nil
}

// worseClaim reports whether stage a has a weaker claim on layers than
// stage b: slower speed, then smaller α, then later position.
func worseClaim(stages []Stage, alpha float64, a, b int) bool {
	eff := func(j int) (speed, al float64) {
		al = stages[j].Alpha
		if al == 0 {
			al = alpha
		}
		return stages[j].Speed, al
	}
	sa, aa := eff(a)
	sb, ab := eff(b)
	if sa != sb {
		return sa < sb
	}
	if aa != ab {
		return aa < ab
	}
	return a > b
}

// repairMemory shifts layers off stages that exceed their MaxLayers cap
// onto the stages with the most headroom (fastest first among ties).
func repairMemory(out []int, stages []Stage) error {
	type slot struct{ idx, cap int }
	overflow := 0
	var room []slot
	for j, s := range stages {
		if s.MaxLayers > 0 && out[j] > s.MaxLayers {
			overflow += out[j] - s.MaxLayers
			out[j] = s.MaxLayers
		}
	}
	if overflow == 0 {
		return nil
	}
	for j, s := range stages {
		cap := math.MaxInt
		if s.MaxLayers > 0 {
			cap = s.MaxLayers
		}
		if out[j] < cap {
			room = append(room, slot{j, cap})
		}
	}
	// Prefer faster stages for the spilled layers.
	sort.Slice(room, func(a, b int) bool {
		return stages[room[a].idx].Speed > stages[room[b].idx].Speed
	})
	for overflow > 0 {
		moved := false
		for _, r := range room {
			if overflow == 0 {
				break
			}
			if out[r.idx] < r.cap {
				out[r.idx]++
				overflow--
				moved = true
			}
		}
		if !moved {
			return fmt.Errorf("partition: memory caps too tight — %d layers do not fit", overflow)
		}
	}
	return nil
}
