// Package train simulates distributed DNN training at the layer level:
// the workloads of the paper's Sec. 6.4 (ResNet50 data parallelism,
// ViT under DP/TP/3D-hybrid, GPT-2 under 3D-hybrid with Megatron-style
// sharding) plus two beyond-paper scenarios that stress dynamic
// communicator lifecycles — RunMoE (Mixture-of-Experts expert
// parallelism: skewed top-k routing, AllToAll token dispatch/combine,
// per-iteration expert-group churn) and RunZeRO (ZeRO/FSDP sharded
// data parallelism, stages 1-3: per-layer gradient ReduceScatter and
// parameter AllGather with sharded optimizer state).
//
// Compute is charged as virtual time per layer; every collective goes
// through an orch.Backend, so the same workload runs over DFCCL or
// over NCCL with any CPU orchestration method. The paper-figure
// workloads use TimingOnly collectives; the MoE and ZeRO workloads
// carry real data and verify their results exactly against serial
// references, making them correctness tests as much as benchmarks.
package train

import (
	"fmt"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// Layer is one gradient-carrying unit of a model.
type Layer struct {
	Name string
	// FwdPerSample / BwdPerSample are compute costs per sample on the
	// reference GPU (RTX 3090).
	FwdPerSample, BwdPerSample sim.Duration
	// GradElems is the float32 gradient tensor size for data-parallel
	// all-reduce.
	GradElems int
	// TPCommElems is the per-sample activation all-reduce size when
	// the layer is tensor-parallel (Megatron: one all-reduce in fwd,
	// one in bwd per sharded block); 0 = not tensor-parallel.
	TPCommElems int
	// ActElems is the per-sample activation size crossing a pipeline
	// stage boundary after this layer.
	ActElems int
}

// Model is a layer list with a name.
type Model struct {
	Name   string
	Layers []Layer
}

// SpeedFactor converts reference-GPU compute time to the given model's
// (RTX 3090 = 1.0; the 3080Ti is ≈16% slower per sample, consistent
// with the paper's Fig. 10 throughput ratios).
func SpeedFactor(g topo.GPUModel) float64 {
	switch g.Name {
	case "RTX3090":
		return 1.0
	case "RTX3080Ti":
		return 1.16
	default:
		return 1.0
	}
}

// ResNet50 builds the layer model used for Fig. 10: 54 gradient
// tensors totalling ≈25.5M parameters, with per-sample compute
// calibrated so static-sorted NCCL reproduces the paper's ≈508
// samples/s on eight 3090s at batch 96.
func ResNet50() Model {
	var layers []Layer
	add := func(name string, n, params int) {
		for i := 0; i < n; i++ {
			layers = append(layers, Layer{
				Name:      fmt.Sprintf("%s.%d", name, i),
				GradElems: params,
			})
		}
	}
	add("conv1", 1, 9_408)
	add("layer1", 9, 70_000)   // 3 bottlenecks × 3 convs
	add("layer2", 12, 160_000) // 4 bottlenecks
	add("layer3", 18, 380_000) // 6 bottlenecks
	add("layer4", 9, 1_500_000)
	add("bn-misc", 4, 33_000)
	add("fc", 1, 2_049_000)
	m := Model{Name: "resnet50", Layers: layers}
	// Distribute 15.1 ms/sample of compute: 35% forward, 65% backward,
	// spread evenly across layers (layer timing detail does not change
	// the orchestration comparison).
	perLayer := 15100 * sim.Microsecond / sim.Duration(len(layers))
	for i := range m.Layers {
		m.Layers[i].FwdPerSample = perLayer * 35 / 100
		m.Layers[i].BwdPerSample = perLayer * 65 / 100
	}
	return m
}

// transformer builds a transformer-block model: embed + n blocks
// (attention + MLP as two gradient tensors each) + head. embedElems
// sizes the embedding gradient (patch embedding for ViT, token+position
// embedding for GPT-2).
func transformer(name string, blocks, hidden, seq, perSampleUS, embedElems int) Model {
	var layers []Layer
	paramsAttn := 4 * hidden * hidden
	paramsMLP := 8 * hidden * hidden
	actSize := seq * hidden
	layers = append(layers, Layer{Name: "embed", GradElems: embedElems})
	for b := 0; b < blocks; b++ {
		layers = append(layers,
			Layer{Name: fmt.Sprintf("blk%d.attn", b), GradElems: paramsAttn, TPCommElems: actSize, ActElems: actSize},
			Layer{Name: fmt.Sprintf("blk%d.mlp", b), GradElems: paramsMLP, TPCommElems: actSize, ActElems: actSize},
		)
	}
	layers = append(layers, Layer{Name: "head", GradElems: hidden * 1000})
	m := Model{Name: name, Layers: layers}
	per := sim.Duration(perSampleUS) * sim.Microsecond / sim.Duration(len(layers))
	for i := range m.Layers {
		m.Layers[i].FwdPerSample = per * 35 / 100
		m.Layers[i].BwdPerSample = per * 65 / 100
	}
	return m
}

// ViTBase is the base Vision Transformer of Fig. 12(a)-(c): 12 blocks,
// hidden 768, 197 patches, ≈86M parameters, ≈4ms/sample.
func ViTBase() Model { return transformer("vit-base", 12, 768, 197, 4000, 2*768*197) }

// ViTLarge is the large configuration of Fig. 12(d): 24 blocks, hidden
// 1024, ≈304M parameters, ≈13ms/sample.
func ViTLarge() Model { return transformer("vit-large", 24, 1024, 197, 13000, 2*1024*197) }

// GPT2 is the CodeParrot-style GPT-2 of Fig. 13: 12 blocks, hidden 768,
// sequence 1024, ≈124M parameters, ≈25ms/sample.
func GPT2() Model { return transformer("gpt2", 12, 768, 1024, 25000, 32768*768+1024*768) }
