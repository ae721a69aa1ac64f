// Package pipeline implements pipeline-model-parallel schedules: GPipe and
// the PipeDream-Flush / 1F1B schedule the paper builds on ("The
// implementation of our pipeline parallelism is similar to PipeDream-Flush
// [19]. We use periodic pipeline flushes to maintain the synchronization
// of optimizer steps", §3.1.1).
//
// A Schedule is the static per-stage order of forward/backward micro-batch
// operations; Executor replays a schedule on the discrete-event fabric,
// with per-stage compute times (which the self-adapting partition makes
// unequal) and per-hop activation/gradient transfers, so pipeline bubbles
// and communication stalls emerge rather than being assumed.
package pipeline

import "fmt"

// OpKind distinguishes forward from backward micro-batch work.
type OpKind int

const (
	Forward OpKind = iota
	Backward
)

// Op is one unit of stage work on one micro-batch.
type Op struct {
	Kind  OpKind
	Micro int
}

// Schedule is a static pipeline execution plan: Ops[s] is the ordered work
// list of stage s.
type Schedule struct {
	Stages int
	Micro  int
	Ops    [][]Op
	Name   string
}

// OneFOneB builds the PipeDream-Flush schedule for p stages and m
// micro-batches: stage s runs min(p−1−s, m) warm-up forwards, then
// alternates one-forward-one-backward, then drains the remaining
// backwards. Peak resident activations per stage are ≤ min(p−s, m), which
// is the schedule's memory advantage over GPipe.
func OneFOneB(p, m int) *Schedule {
	validateShape(p, m)
	s := &Schedule{Stages: p, Micro: m, Name: "1F1B"}
	for st := 0; st < p; st++ {
		warmup := p - 1 - st
		if warmup > m {
			warmup = m
		}
		var ops []Op
		nextF, nextB := 0, 0
		for i := 0; i < warmup; i++ {
			ops = append(ops, Op{Forward, nextF})
			nextF++
		}
		for nextB < m {
			if nextF < m {
				ops = append(ops, Op{Forward, nextF})
				nextF++
			}
			ops = append(ops, Op{Backward, nextB})
			nextB++
		}
		s.Ops = append(s.Ops, ops)
	}
	return s
}

// GPipe builds the all-forwards-then-all-backwards schedule, the baseline
// with m resident micro-batches per stage.
func GPipe(p, m int) *Schedule {
	validateShape(p, m)
	s := &Schedule{Stages: p, Micro: m, Name: "GPipe"}
	for st := 0; st < p; st++ {
		var ops []Op
		for i := 0; i < m; i++ {
			ops = append(ops, Op{Forward, i})
		}
		for i := 0; i < m; i++ {
			ops = append(ops, Op{Backward, i})
		}
		s.Ops = append(s.Ops, ops)
	}
	return s
}

func validateShape(p, m int) {
	if p <= 0 || m <= 0 {
		panic(fmt.Sprintf("pipeline: bad shape p=%d m=%d", p, m))
	}
}
