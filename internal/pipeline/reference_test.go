package pipeline

import "fmt"

// Reference checks for schedules and the executor: a causal replay that
// proves a schedule complete and deadlock-free, the per-stage activation
// peak, and the closed-form makespan of a flush-based pipeline.

// String names the op kind.
func (k OpKind) String() string {
	if k == Forward {
		return "F"
	}
	return "B"
}

func (o Op) String() string { return fmt.Sprintf("%v%d", o.Kind, o.Micro) }

// Validate checks that the schedule is complete (each stage runs every
// micro-batch forward and backward exactly once) and causally executable:
// a topological replay respecting inter-stage dependencies (F_{s,i} needs
// F_{s−1,i}; B_{s,i} needs B_{s+1,i}; B on the last stage needs its own F)
// and intra-stage order must terminate.
func (s *Schedule) Validate() error {
	if len(s.Ops) != s.Stages {
		return fmt.Errorf("pipeline: %d op lists for %d stages", len(s.Ops), s.Stages)
	}
	for st, ops := range s.Ops {
		if len(ops) != 2*s.Micro {
			return fmt.Errorf("pipeline: stage %d has %d ops, want %d", st, len(ops), 2*s.Micro)
		}
		seen := map[Op]bool{}
		for _, op := range ops {
			if op.Micro < 0 || op.Micro >= s.Micro {
				return fmt.Errorf("pipeline: stage %d op %v out of range", st, op)
			}
			if seen[op] {
				return fmt.Errorf("pipeline: stage %d repeats %v", st, op)
			}
			seen[op] = true
		}
	}
	// Causal replay.
	pos := make([]int, s.Stages)
	fDone := make([][]bool, s.Stages)
	bDone := make([][]bool, s.Stages)
	for st := range fDone {
		fDone[st] = make([]bool, s.Micro)
		bDone[st] = make([]bool, s.Micro)
	}
	remaining := s.Stages * 2 * s.Micro
	for remaining > 0 {
		progressed := false
		for st := 0; st < s.Stages; st++ {
			for pos[st] < len(s.Ops[st]) {
				op := s.Ops[st][pos[st]]
				ready := false
				switch op.Kind {
				case Forward:
					ready = st == 0 || fDone[st-1][op.Micro]
				case Backward:
					if st == s.Stages-1 {
						ready = fDone[st][op.Micro]
					} else {
						ready = bDone[st+1][op.Micro]
					}
				}
				if !ready {
					break
				}
				if op.Kind == Forward {
					fDone[st][op.Micro] = true
				} else {
					bDone[st][op.Micro] = true
				}
				pos[st]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return fmt.Errorf("pipeline: schedule deadlocks (stages stuck at %v)", pos)
		}
	}
	return nil
}

// MaxInFlight returns the peak number of micro-batches resident on a stage
// (forwards executed whose backwards have not yet run) under the
// schedule's own order — the activation-memory driver.
func (s *Schedule) MaxInFlight(stage int) int {
	inFlight, peak := 0, 0
	for _, op := range s.Ops[stage] {
		if op.Kind == Forward {
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
		} else {
			inFlight--
		}
	}
	return peak
}

// AnalyticIterTime estimates one iteration of a flush-based pipeline with
// per-stage per-micro-batch compute times tf[s]+tb[s] and a per-hop
// communication time comm: (m−1) beats of the slowest stage plus one full
// traversal of all stages and hops — the closed form the Executor is
// checked against when hops cost nothing.
func AnalyticIterTime(tf, tb []float64, comm float64, m int) float64 {
	p := len(tf)
	if p == 0 || len(tb) != p || m <= 0 {
		panic("pipeline: bad analytic inputs")
	}
	beat := 0.0
	sum := 0.0
	for s := 0; s < p; s++ {
		t := tf[s] + tb[s]
		if t > beat {
			beat = t
		}
		sum += t
	}
	return float64(m-1)*beat + sum + 2*float64(p-1)*comm
}
