package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformEvenSplit(t *testing.T) {
	r, err := Uniform(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers[0] != 15 || r.Layers[1] != 15 {
		t.Fatalf("Uniform(30,2) = %v", r.Layers)
	}
	if err := r.Validate(30); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRemainderGoesFirst(t *testing.T) {
	r, err := Uniform(36, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 7, 7, 7, 7}
	for j := range want {
		if r.Layers[j] != want[j] {
			t.Fatalf("Uniform(36,5) = %v, want %v", r.Layers, want)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(3, 4); err == nil {
		t.Fatal("3 layers / 4 stages must fail")
	}
	if _, err := Uniform(3, 0); err == nil {
		t.Fatal("0 stages must fail")
	}
}

// Eq. 4 of the paper: two stages, IB vs RoCE speeds from Table 1
// (197 vs 160 TFLOPS), 30 layers, α=1.05:
// N_ib = ⌊1.05·197/357·30⌋ = ⌊17.38⌋ = 17, N_roce = 13.
func TestSelfAdaptingMatchesEq4(t *testing.T) {
	r, err := SelfAdapting(30, []Stage{{Speed: 197}, {Speed: 160}}, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers[0] != 17 || r.Layers[1] != 13 {
		t.Fatalf("SelfAdapting = %v, want [17 13]", r.Layers)
	}
}

func TestSelfAdaptingFasterStageGetsMore(t *testing.T) {
	r, err := SelfAdapting(36, []Stage{{Speed: 229}, {Speed: 196}, {Speed: 196}}, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(36); err != nil {
		t.Fatal(err)
	}
	if r.Layers[0] <= r.Layers[1] {
		t.Fatalf("faster stage must get more layers: %v", r.Layers)
	}
}

func TestSelfAdaptingEqualSpeedsNearUniform(t *testing.T) {
	r, err := SelfAdapting(30, []Stage{{Speed: 100}, {Speed: 100}}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers[0] != 15 || r.Layers[1] != 15 {
		t.Fatalf("equal speeds should give uniform: %v", r.Layers)
	}
}

func TestSelfAdaptingMemoryCap(t *testing.T) {
	// The fast stage would take 17 layers but memory caps it at 14; the
	// spill must land on the other stage.
	r, err := SelfAdapting(30, []Stage{
		{Speed: 197, MaxLayers: 14},
		{Speed: 160},
	}, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers[0] != 14 || r.Layers[1] != 16 {
		t.Fatalf("memory-capped partition = %v, want [14 16]", r.Layers)
	}
}

func TestSelfAdaptingInfeasibleMemory(t *testing.T) {
	_, err := SelfAdapting(30, []Stage{
		{Speed: 1, MaxLayers: 5},
		{Speed: 1, MaxLayers: 5},
	}, 1.0)
	if err == nil {
		t.Fatal("30 layers cannot fit 10 slots")
	}
}

func TestSelfAdaptingPerStageAlpha(t *testing.T) {
	// Boosting stage 0's α shifts layers towards it.
	base, _ := SelfAdapting(30, []Stage{{Speed: 100}, {Speed: 100}}, 1.0)
	boosted, _ := SelfAdapting(30, []Stage{{Speed: 100, Alpha: 1.2}, {Speed: 100}}, 1.0)
	if boosted.Layers[0] <= base.Layers[0] {
		t.Fatalf("alpha boost had no effect: %v vs %v", boosted.Layers, base.Layers)
	}
}

func TestSelfAdaptingBadInputs(t *testing.T) {
	if _, err := SelfAdapting(30, nil, 1.0); err == nil {
		t.Fatal("no stages must fail")
	}
	if _, err := SelfAdapting(30, []Stage{{Speed: 1}, {Speed: -2}}, 1.0); err == nil {
		t.Fatal("negative speed must fail")
	}
	if _, err := SelfAdapting(30, []Stage{{Speed: 1}, {Speed: 1}}, 0); err == nil {
		t.Fatal("zero alpha must fail")
	}
	if _, err := SelfAdapting(1, []Stage{{Speed: 1}, {Speed: 1}}, 1.0); err == nil {
		t.Fatal("fewer layers than stages must fail")
	}
}

func TestSelfAdaptingBeatsUniformOnBottleneck(t *testing.T) {
	// The whole point of §3.3: on heterogeneous speeds the self-adapting
	// partition has a strictly better bottleneck than uniform.
	stages := []Stage{{Speed: 197}, {Speed: 122}}
	uni, _ := Uniform(30, 2)
	ada, err := SelfAdapting(30, stages, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if BottleneckTime(ada, stages) >= BottleneckTime(uni, stages) {
		t.Fatalf("self-adapting %v (%.4f) must beat uniform %v (%.4f)",
			ada.Layers, BottleneckTime(ada, stages), uni.Layers, BottleneckTime(uni, stages))
	}
}

func TestOptimalNeverWorseThanEither(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		p := rng.Intn(4) + 2
		layers := p + rng.Intn(40)
		stages := make([]Stage, p)
		for j := range stages {
			stages[j] = Stage{Speed: 50 + rng.Float64()*200}
		}
		opt, err := Optimal(layers, stages)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Validate(layers); err != nil {
			t.Fatal(err)
		}
		optT := BottleneckTime(opt, stages)
		if uni, err := Uniform(layers, p); err == nil {
			if optT > BottleneckTime(uni, stages)+1e-12 {
				t.Fatalf("optimal %v worse than uniform %v", opt.Layers, uni.Layers)
			}
		}
		if ada, err := SelfAdapting(layers, stages, 1.05); err == nil {
			if optT > BottleneckTime(ada, stages)+1e-12 {
				t.Fatalf("optimal %v worse than self-adapting %v", opt.Layers, ada.Layers)
			}
		}
	}
}

func TestOptimalRespectsMemoryCaps(t *testing.T) {
	stages := []Stage{{Speed: 300, MaxLayers: 3}, {Speed: 100}}
	r, err := Optimal(10, stages)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers[0] > 3 {
		t.Fatalf("optimal ignored cap: %v", r.Layers)
	}
	if _, err := Optimal(10, []Stage{{Speed: 1, MaxLayers: 2}, {Speed: 1, MaxLayers: 2}}); err == nil {
		t.Fatal("infeasible caps must fail")
	}
}

func TestGreedyFallbackForLargeP(t *testing.T) {
	stages := make([]Stage, 12)
	for j := range stages {
		stages[j] = Stage{Speed: float64(100 + j*10)}
	}
	r, err := Optimal(48, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(48); err != nil {
		t.Fatal(err)
	}
	// Faster stages should not hold fewer layers than much slower ones.
	if r.Layers[11] < r.Layers[0] {
		t.Fatalf("greedy balanced gave %v", r.Layers)
	}
}

// Property: self-adapting always produces a valid partition whenever it
// returns nil error, for arbitrary speeds and layer counts.
func TestSelfAdaptingAlwaysValidProperty(t *testing.T) {
	f := func(speedsRaw []uint8, layersRaw uint8) bool {
		p := len(speedsRaw)
		if p < 1 {
			return true
		}
		if p > 8 {
			p = 8
		}
		stages := make([]Stage, p)
		for j := 0; j < p; j++ {
			stages[j] = Stage{Speed: float64(speedsRaw[j]%200) + 1}
		}
		layers := int(layersRaw%60) + p
		r, err := SelfAdapting(layers, stages, 1.05)
		if err != nil {
			return true // rejections are fine; invalid successes are not
		}
		return r.Validate(layers) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Layers: []int{3, 4}, Strategy: "uniform"}
	if r.String() != "uniform[3 4]" {
		t.Fatalf("String = %q", r.String())
	}
	if err := r.Validate(8); err == nil {
		t.Fatal("wrong total must fail validation")
	}
	if err := (Result{Layers: []int{0, 7}}).Validate(7); err == nil {
		t.Fatal("empty stage must fail validation")
	}
}
