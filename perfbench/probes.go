package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/gse"
	"pactrain/internal/masktracker"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/par"
	"pactrain/internal/prune"
	"pactrain/internal/tensor"
)

// probeSteps is how many training steps each probe loop times per model.
const probeSteps = 12

// probeTotals are the busy seconds and counts the layer probes measured,
// summed over the workload's models.
type probeTotals struct {
	forward, backward, sgd float64
	allocs, steps          float64
	prune                  float64
	bucket, enforce        float64
	observe, encode        float64
	payloadBytes           float64
	allreduce              float64
	allreduceOps           float64
	// perIter is one training iteration's probe self time on one rank,
	// summed over the workload's models: forward, backward, SGD, GSE,
	// bucket copies, tracker and encoder.
	perIter float64
	// allreducePerIter is one iteration's all-reduce time across the world.
	allreducePerIter float64
}

// prepared is a model with the data it trains on, built by a workload's
// set-up.
type prepared struct {
	cfg   core.Config
	model *nn.Model
	train *data.Dataset
}

// prepare builds a config's model and training data, the set-up every
// workload times.
func prepare(cfg core.Config) (prepared, error) {
	model, err := nn.NewLiteByName(cfg.ModelName, cfg.Lite)
	if err != nil {
		return prepared{}, err
	}
	ds := data.Generate(cfg.Data)
	// One warm-up step settles the model's lazily sized scratch buffers.
	x, labels, _ := data.ShardDataset(ds, 0, 1).Batches(cfg.BatchSize, tensor.NewRNG(cfg.Seed))()
	_, grad := nn.SoftmaxCrossEntropy(model.Forward(x, true), labels)
	model.Backward(grad)
	return prepared{cfg: cfg, model: model, train: ds}, nil
}

// probe times each layer the training step crosses, on a world-1 dense
// replica of the prepared model: the single-worker baseline. The compressed
// path (prune, GSE, buckets, tracker, encoder) and the all-reduce data plane
// run on the same model after pruning it at the config's ratio.
func probe(p prepared, tot *probeTotals) error {
	// One kernel worker: the probe stands for one rank's share of a core.
	defer par.SetBudget(par.Budget())
	par.SetBudget(1)
	cfg := p.cfg
	model, opt := p.model, nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	next := batches(p.train, cfg)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var fwd, bwd, sgd float64
	for i := 0; i < probeSteps; i++ {
		x, labels := next()
		t0 := time.Now()
		_, grad := nn.SoftmaxCrossEntropy(model.Forward(x, true), labels)
		t1 := time.Now()
		model.ZeroGrad()
		model.Backward(grad)
		t2 := time.Now()
		opt.Step(model.Params())
		t3 := time.Now()
		fwd += t1.Sub(t0).Seconds()
		bwd += t2.Sub(t1).Seconds()
		sgd += t3.Sub(t2).Seconds()
	}
	runtime.ReadMemStats(&ms)
	tot.forward += fwd
	tot.backward += bwd
	tot.sgd += sgd
	tot.allocs += float64(ms.Mallocs - mallocs)
	tot.steps += probeSteps

	t0 := time.Now()
	mask, err := prune.MagnitudePrune(model, cfg.PruneRatio, cfg.PruneMethod)
	if err != nil {
		return fmt.Errorf("probe %s: %w", cfg.ModelName, err)
	}
	tot.prune += time.Since(t0).Seconds()
	mask.Apply(model)

	buckets := ddp.BuildBuckets(model, cfg.BucketBytes)
	trackers := make([]*masktracker.Tracker, len(buckets))
	encoders := make([]*compress.MaskCompact, len(buckets))
	payloads := make([][]float32, len(buckets))
	for i, b := range buckets {
		trackers[i] = masktracker.New(cfg.StableWindow)
		encoders[i] = compress.NewMaskCompact(true, cfg.Seed+uint64(i))
		keep := b.FlatKeepMask(mask)
		var idx []int32
		for j, k := range keep {
			if k {
				idx = append(idx, int32(j))
			}
		}
		encoders[i].SetMask(idx, len(keep))
	}
	var bucketS, enforceS, observeS, encodeS float64
	for i := 0; i < probeSteps; i++ {
		x, labels := next()
		_, grad := nn.SoftmaxCrossEntropy(model.Forward(x, true), labels)
		model.ZeroGrad()
		model.Backward(grad)
		t0 := time.Now()
		gse.Enforce(model, mask)
		enforceS += time.Since(t0).Seconds()
		for j, b := range buckets {
			t0 := time.Now()
			b.Gather()
			t1 := time.Now()
			trackers[j].Observe(b.Flat)
			t2 := time.Now()
			payloads[j] = encoders[j].EncodeInto(b.Flat, payloads[j])
			t3 := time.Now()
			b.Scatter()
			t4 := time.Now()
			bucketS += t1.Sub(t0).Seconds() + t4.Sub(t3).Seconds()
			observeS += t2.Sub(t1).Seconds()
			encodeS += t3.Sub(t2).Seconds()
			tot.payloadBytes += encoders[j].Wire().MessageBytes(len(payloads[j]))
		}
		opt.Step(model.Params())
	}
	tot.bucket += bucketS
	tot.enforce += enforceS
	tot.observe += observeS
	tot.encode += encodeS
	tot.perIter += (fwd + bwd + sgd + bucketS + enforceS + observeS + encodeS) / probeSteps

	ar, ops := probeAllReduce(cfg, buckets)
	tot.allreduce += ar
	tot.allreduceOps += ops
	tot.allreducePerIter += ar / probeSteps
	return nil
}

// probeAllReduce sums the buckets' gradients across World goroutines, one
// AllReduceSum per bucket per step, on the config's fabric.
func probeAllReduce(cfg core.Config, buckets []*ddp.Bucket) (seconds, ops float64) {
	fabric := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps}))
	cluster := collective.NewClusterWith(cfg.World, fabric, collective.MustAlgorithm(cfg.Collective))
	vecs := make([][][]float32, cfg.World)
	for r := range vecs {
		vecs[r] = make([][]float32, len(buckets))
		for j, b := range buckets {
			vecs[r][j] = append([]float32(nil), b.Flat...)
		}
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < cfg.World; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t := 0.0
			for i := 0; i < probeSteps; i++ {
				for _, v := range vecs[r] {
					t = cluster.AllReduceSum(r, v, collective.WireFP32, t)
				}
			}
		}(r)
	}
	wg.Wait()
	return time.Since(t0).Seconds(), float64(probeSteps * len(buckets))
}

// batches cycles through a config's world-1 training batches.
func batches(ds *data.Dataset, cfg core.Config) func() (*tensor.Tensor, []int) {
	shard := data.ShardDataset(ds, 0, 1)
	epoch := uint64(0)
	next := shard.Batches(cfg.BatchSize, tensor.NewRNG(cfg.Seed))
	return func() (*tensor.Tensor, []int) {
		for {
			if x, labels, ok := next(); ok {
				return x, labels
			}
			epoch++
			next = shard.Batches(cfg.BatchSize, tensor.NewRNG(cfg.Seed+epoch))
		}
	}
}

// priceLogs re-prices every iteration of each recorded Result with
// core.CostIter on the Fig. 4 fabric under the run's own collective
// algorithm, returning the busy seconds.
func priceLogs(results []*core.Result) float64 {
	t0 := time.Now()
	for _, res := range results {
		if res == nil || res.CommLog == nil {
			continue
		}
		fabric := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: netsim.Gbps}))
		world := len(res.WeightChecksums)
		hosts := fabric.Topo.Hosts()[:world]
		alg := collective.MustAlgorithm(res.Collective)
		t := 0.0
		for _, ops := range res.CommLog.Iters {
			t += core.CostIter(ops, alg, fabric, hosts, t)
		}
	}
	return time.Since(t0).Seconds()
}
