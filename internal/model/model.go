// Package model describes the 16 ML inference workloads the Paldia paper
// evaluates: 12 image-classification models (ImageNet-1k, max batch 128) and
// 4 sequence-classification language models (Large Movie Review Dataset,
// max batch 8).
//
// The per-model compute and memory-traffic figures are synthetic calibration
// constants, not measurements: they are chosen so that the derived quantities
// the paper's policies consume land in the paper's operating ranges —
// batch execution latency between ~50 and 200 ms on the GPUs, CPU nodes
// capable up to a few tens of rps, Fractional Bandwidth Requirements (FBR)
// that are moderate for vision models and very high for the language models.
// See internal/profile for how latency and FBR are derived from these specs.
package model

import "fmt"

// Domain is the workload family.
type Domain int

const (
	// Vision models classify images (primary experiments).
	Vision Domain = iota
	// Language models classify sequences (sensitivity study); they have far
	// higher execution times, memory footprints and FBRs.
	Language
)

func (d Domain) String() string {
	switch d {
	case Vision:
		return "vision"
	case Language:
		return "language"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// Spec describes one inference workload.
type Spec struct {
	// Name is the model name as the paper spells it.
	Name string
	// Domain is Vision or Language.
	Domain Domain
	// MaxBatch is the upper bound on batch size (128 vision, 8 language).
	MaxBatch int
	// GFLOPsPerSample is the dense compute per inference sample; together
	// with a node's ComputeScore it sets the solo execution latency.
	GFLOPsPerSample float64
	// TrafficGBPerSample is the device-memory traffic per sample in GB;
	// relative to a GPU's bandwidth it sets the model's FBR.
	TrafficGBPerSample float64
	// CPUFactor scales CPU execution efficiency (1 = as CPU-friendly as
	// ResNet-style convnets; <1 = relatively worse on CPUs).
	CPUFactor float64
	// MemFootprintGB is the resident memory a serving container needs
	// (weights + activations + runtime).
	MemFootprintGB float64

	// highFBR marks vision models the paper classes as high-FBR when
	// scaling traces. It is a static property of the catalog (see IsHighFBR).
	highFBR bool
}

func (s Spec) String() string { return s.Name }

// IsHighFBR classifies the workload the way the paper scales its traces:
// vision models with high FBR (GoogleNet, DPN-92, ...) receive a 225 rps
// peak, the rest 450 rps. The threshold is on the M60 — the cost-effective
// GPU where bandwidth pressure matters; profile.Entry.FBR gives exact values, but
// the classification is a static property of the model so it lives here.
func (s Spec) IsHighFBR() bool { return s.highFBR }

// DefaultPeakRPS returns the peak request rate the paper subjects this
// workload to when scaling the Azure serverless trace.
func (s Spec) DefaultPeakRPS() float64 {
	switch {
	case s.Domain == Language:
		return 8
	case s.highFBR:
		return 225
	default:
		return 450
	}
}

// Catalog returns all 16 workloads, vision models first, in the order the
// paper lists them. The slice is a fresh copy.
func Catalog() []Spec {
	c := make([]Spec, len(catalog))
	copy(c, catalog)
	return c
}

// VisionModels returns the 12 image-classification workloads.
func VisionModels() []Spec { return byDomain(Vision) }

// LanguageModels returns the 4 sequence-classification workloads.
func LanguageModels() []Spec { return byDomain(Language) }

func byDomain(d Domain) []Spec {
	var out []Spec
	for _, s := range catalog {
		if s.Domain == d {
			out = append(out, s)
		}
	}
	return out
}

// ByName looks a workload up by name. The boolean reports whether it exists.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// MustByName is ByName that panics on unknown names; for use in experiment
// definitions where the name is a compile-time constant.
func MustByName(name string) Spec {
	s, ok := ByName(name)
	if !ok {
		panic("model: unknown model " + name)
	}
	return s
}
