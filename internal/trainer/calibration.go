package trainer

import "holmes/internal/netsim"

// Calibration holds the constants that tie the simulator to the paper's
// testbed. They are fitted once against Table 1 (GPT-3.6B, 4 nodes, pure
// InfiniBand / RoCE / Ethernet) and then held fixed for every other
// experiment; EXPERIMENTS.md records the residuals.
type Calibration struct {
	// PeakTFLOPS is the per-GPU fp16 peak (A100: 312).
	PeakTFLOPS float64
	// ComputeMFU is the fraction of peak the GPU kernels achieve on pure
	// compute, independent of networking. End-to-end MFU comes out lower
	// once communication stalls are simulated.
	ComputeMFU float64
	// OptimizerSeconds is the parameter-update time after gradients are
	// synchronized (HBM-bound, nearly constant).
	OptimizerSeconds float64
	// InterferenceFactor is the compute slowdown per second of overlapped
	// communication: NCCL kernels steal SMs and HBM bandwidth from the
	// backward pass they hide behind.
	InterferenceFactor float64
	// GradBytesPerParam is the per-parameter payload of the gradient
	// reduce-scatter (4: Megatron reduces fp32 main gradients).
	GradBytesPerParam float64
	// ParamBytesPerParam is the payload of the parameter all-gather that
	// follows a distributed-optimizer step (2: fp16 weights).
	ParamBytesPerParam float64
	// Net parameterizes the fabric.
	Net netsim.Params
}

// DefaultCalibration returns the constants fitted to Table 1.
func DefaultCalibration() Calibration {
	net := netsim.DefaultParams()
	// Fitted effective efficiencies (see EXPERIMENTS.md): InfiniBand runs
	// near line rate; RoCE's PFC/DCQCN leave it well short, which the
	// paper observes as 160 vs 197 TFLOPS at equal 200 Gb/s NIC ratings;
	// commodity Ethernet TCP stacks reach ~2/3 of line rate.
	net.IBEff = 0.92
	net.InterClusterGbpsPerNode = 12.5
	net.RoCEEff = 0.13
	net.EthEff = 0.72
	return Calibration{
		PeakTFLOPS:         312,
		ComputeMFU:         0.78,
		OptimizerSeconds:   0.05,
		InterferenceFactor: 0.15,
		GradBytesPerParam:  4,
		ParamBytesPerParam: 2,
		Net:                net,
	}
}
