package model

// The calibration constants below are chosen against the hardware catalog
// (internal/hardware) and the profile derivations (internal/profile) so that:
//
//   - FBR on the M60 = TrafficGBPerSample * 18 / GFLOPsPerSample
//     (see profile.Entry.FBR with the M60's 2880 effective GFLOP/s and 160 GB/s),
//   - solo batch latency at the preferred batch size stays in the paper's
//     50–200 ms band on the GPUs,
//   - the language models' FBRs are well above 1 even solo, forcing the
//     schedulers onto brawnier hardware (the paper's sensitivity study).
var catalog = []Spec{
	// ---- Vision (ImageNet-1k, max batch 128) -------------------------------
	{
		Name: "ResNet 50", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 4.1, TrafficGBPerSample: 0.137,
		CPUFactor: 1.0, MemFootprintGB: 0.45,
	},
	{
		Name: "GoogleNet", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 1.5, TrafficGBPerSample: 0.071,
		CPUFactor: 0.9, MemFootprintGB: 0.25, highFBR: true,
	},
	{
		Name: "DenseNet 121", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 2.9, TrafficGBPerSample: 0.129,
		CPUFactor: 0.85, MemFootprintGB: 0.30, highFBR: true,
	},
	{
		Name: "DPN 92", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 6.5, TrafficGBPerSample: 0.325,
		CPUFactor: 0.8, MemFootprintGB: 0.55, highFBR: true,
	},
	{
		Name: "VGG 19", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 19.6, TrafficGBPerSample: 0.762,
		CPUFactor: 1.0, MemFootprintGB: 1.1, highFBR: true,
	},
	{
		Name: "ResNet 18", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 1.8, TrafficGBPerSample: 0.045,
		CPUFactor: 1.0, MemFootprintGB: 0.20,
	},
	{
		Name: "MobileNet", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 0.57, TrafficGBPerSample: 0.016,
		CPUFactor: 1.1, MemFootprintGB: 0.12,
	},
	{
		Name: "MobileNet V2", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 0.31, TrafficGBPerSample: 0.0095,
		CPUFactor: 1.1, MemFootprintGB: 0.12,
	},
	{
		Name: "SENet 18", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 1.9, TrafficGBPerSample: 0.053,
		CPUFactor: 0.95, MemFootprintGB: 0.22,
	},
	{
		Name: "ShuffleNet V2", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 0.15, TrafficGBPerSample: 0.0033,
		CPUFactor: 1.1, MemFootprintGB: 0.10,
	},
	{
		Name: "EfficientNet B0", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 0.39, TrafficGBPerSample: 0.0076,
		CPUFactor: 0.9, MemFootprintGB: 0.15,
	},
	{
		Name: "Simplified DLA", Domain: Vision, MaxBatch: 128,
		GFLOPsPerSample: 1.2, TrafficGBPerSample: 0.037,
		CPUFactor: 0.95, MemFootprintGB: 0.18,
	},

	// ---- Language (Large Movie Review Dataset, max batch 8) ----------------
	// Calibrated for long sequences: solo batch-8 latency in the 100–200 ms
	// band on the V100 and FBRs above 1 even for a single job on the M60/K80,
	// which is what forces every scheme onto brawnier hardware (§VI-B).
	{
		Name: "AlBERT", Domain: Language, MaxBatch: 8,
		GFLOPsPerSample: 85, TrafficGBPerSample: 10.4,
		CPUFactor: 0.7, MemFootprintGB: 0.8,
	},
	{
		Name: "BERT", Domain: Language, MaxBatch: 8,
		GFLOPsPerSample: 110, TrafficGBPerSample: 15.3,
		CPUFactor: 0.7, MemFootprintGB: 1.4,
	},
	{
		Name: "DistilBERT", Domain: Language, MaxBatch: 8,
		GFLOPsPerSample: 55, TrafficGBPerSample: 5.5,
		CPUFactor: 0.75, MemFootprintGB: 0.9,
	},
	{
		Name: "Funnel-Transformer", Domain: Language, MaxBatch: 8,
		GFLOPsPerSample: 95, TrafficGBPerSample: 12.7,
		CPUFactor: 0.7, MemFootprintGB: 1.2,
	},
}
