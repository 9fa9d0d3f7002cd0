package core

import (
	"fmt"
	"sync"
	"time"

	"pactrain/internal/collective"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/gse"
	"pactrain/internal/metrics"
	"pactrain/internal/nn"
	"pactrain/internal/prune"
	"pactrain/internal/simclock"
	"pactrain/internal/tensor"
)

// Result summarizes one distributed training run.
type Result struct {
	Scheme string
	Model  string
	// Collective is the canonical collective-algorithm name the run's
	// simulated clock was priced under ("ring" unless configured otherwise).
	Collective string

	// Curve holds rank 0's evaluation trajectory against simulated time.
	Curve metrics.Curve
	// FinalAcc and BestAcc summarize the trajectory.
	FinalAcc float64
	BestAcc  float64
	// TTASeconds is the simulated time to reach Config.TargetAcc; if
	// ReachedTarget is false it is the end-of-run time (a lower bound).
	TTASeconds    float64
	ReachedTarget bool

	Iterations int
	EpochsRun  int
	// SimSeconds is the total simulated training time.
	SimSeconds float64
	// WallSeconds is the host wall-clock cost of the run.
	WallSeconds float64

	// Stats aggregates the cluster's communication accounting.
	Stats collective.Stats
	// CommLog holds rank 0's per-iteration operation log when
	// Config.RecordComm is set, enabling bandwidth re-costing.
	CommLog *CommLog

	// StableFraction is the fraction of PacTrain bucket syncs that used the
	// compact path — for the adaptive scheme, the controller-driven
	// fraction (0 for other schemes).
	StableFraction float64
	// MaskSparsity is the fraction of pruned weights (0 when not pruning).
	MaskSparsity float64

	// AdaptiveDecisions counts, for the adaptive scheme, how many
	// controller rounds landed on each candidate wire format (nil for
	// every other scheme); AdaptiveSwitches counts completed format
	// switches. The per-round decisions themselves are in CommLog.
	AdaptiveDecisions map[string]int `json:",omitempty"`
	AdaptiveSwitches  int            `json:",omitempty"`

	// WeightChecksums holds one end-of-training weight checksum per rank;
	// equal values certify that the replicas never diverged.
	WeightChecksums []float64
}

// Run executes one distributed training run: cfg.World worker goroutines
// train identical model replicas on disjoint shards, synchronizing through
// the configured scheme over the simulated fabric, while rank 0 evaluates
// against simulated time.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	// Equal shard sizes keep every worker's collective sequence in
	// lockstep; EpochBatches derives the replay's batch plan from the same
	// padding.
	cfg.Data.Samples = cfg.trainSamples()

	start := time.Now()
	fabric := cfg.NewFabric()
	algo, err := collective.AlgorithmByName(cfg.Collective)
	if err != nil {
		return nil, err
	}
	cluster := collective.NewClusterWith(cfg.World, fabric, algo)

	// Train and test splits must share class prototypes, so generate one
	// dataset and split off the tail for evaluation.
	fullCfg := cfg.Data
	fullCfg.Samples = cfg.Data.Samples + cfg.TestSamples
	full := data.Generate(fullCfg)
	trainSet, testSet := data.Split(full, cfg.TestSamples)

	res := &Result{Scheme: cfg.Scheme, Model: cfg.ModelName, Collective: cfg.Collective,
		WeightChecksums: make([]float64, cfg.World)}
	var log *CommLog
	if cfg.RecordComm {
		log = &CommLog{}
		res.CommLog = log
	}

	errs := make([]error, cfg.World)
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.World; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = runWorker(&cfg, rank, cluster, trainSet, testSet, log, res)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res.Stats = cluster.Stats()
	res.FinalAcc = res.Curve.FinalAcc()
	res.BestAcc = res.Curve.BestAcc()
	res.TTASeconds, res.ReachedTarget = res.Curve.TTA(cfg.TargetAcc)
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// runWorker is the per-rank training loop (Algorithm 1).
func runWorker(cfg *Config, rank int, cluster *collective.Cluster,
	trainSet, testSet *data.Dataset, log *CommLog, res *Result) error {

	model, err := nn.NewLiteByName(cfg.ModelName, cfg.Lite)
	if err != nil {
		return err
	}
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	shard := data.ShardDataset(trainSet, rank, cfg.World)
	buckets := ddp.BuildBuckets(model, cfg.BucketBytes)

	// The per-rank timeline model (DESIGN.md §9). Under per-bucket overlap
	// each bucket's collective launches once its gradient is ready — forward
	// plus the bucket's prefix share of backward, in reverse-registration
	// order. With heterogeneity or overlap active, a clock-only rendezvous
	// (LaunchBarrier) resolves every bucket's launch time before the hook
	// runs, so lockstep decisions and the recorded log see the true
	// synchronized start; when inactive, the arithmetic below reduces
	// bit-exactly to the historical scalar clock.
	timeline := cfg.TimelineActive()
	elems := make([]int, len(buckets))
	for i, b := range buckets {
		elems[i] = b.Elements()
	}
	var prefix []float64
	if cfg.Overlap == ddp.OverlapBackward {
		prefix = simclock.PrefixShares(elems)
	}

	// Price the lite twin's buckets as slices of the full-size model's
	// gradient: each logical element carries Profile.Params/liteParams
	// wire elements (DESIGN.md §1).
	wireScale := 1.0
	if cfg.Profile.Params > 0 && model.NumParameters() > 0 {
		wireScale = float64(cfg.Profile.Params) / float64(model.NumParameters())
	}
	env := &hookEnv{cluster: cluster, rank: rank, world: cfg.World, wireScale: wireScale}
	if rank == 0 {
		env.log = log
		if log != nil {
			log.SetBuckets(elems)
		}
	}
	hook, err := buildHook(cfg, env)
	if err != nil {
		return err
	}

	var mask *prune.Mask
	simTime := 0.0
	iter := 0
	lastLoss := 0.0
	invWorld := 1 / float32(cfg.World)

	evalNow := func(endOfEpoch bool) bool {
		if rank != 0 {
			return false
		}
		if cfg.EvalEvery > 0 {
			return iter%cfg.EvalEvery == 0
		}
		return endOfEpoch
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = nn.CosineLR(cfg.LR, cfg.LR*0.1, epoch, cfg.Epochs)

		// Algorithm 1 line 2: prune once the warm-up ("pre-trained model")
		// phase completes. The mask derives deterministically from state all
		// replicas share, so it is identical everywhere without extra
		// communication; the Mask Tracker still pays the bitmap re-share
		// when it sees the pattern move.
		if cfg.IsPacTrain() && mask == nil && epoch == cfg.PretrainEpochs {
			mask, err = buildMask(cfg, model, trainSet)
			if err != nil {
				return err
			}
			mask.Apply(model)
			gse.ZeroVelocity(opt, model, mask)
			if mr, ok := hook.(maskResetter); ok {
				mr.NotifyMaskInvalidated()
			}
			if rank == 0 {
				res.MaskSparsity = mask.Sparsity()
			}
		}

		rng := tensor.NewRNG(cfg.Seed*7919 + uint64(rank)*101 + uint64(epoch))
		next := shard.Batches(cfg.BatchSize, rng)
		for {
			x, labels, ok := next()
			if !ok {
				break
			}
			if env.log != nil {
				env.log.StartIter()
			}

			out := model.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(out, labels)
			lastLoss = loss
			model.ZeroGrad()
			model.Backward(grad)
			if mask != nil {
				gse.Enforce(model, mask) // Eq. 2, every iteration
			}

			// Simulated compute, then bucket-by-bucket synchronization on
			// this rank's timeline. The Scale/ready/Finish expressions are
			// shared with the harness re-coster (simclock.IterSchedule,
			// ddp.RankCompute.Scale), which is what keeps re-costing
			// bit-exact for per-rank logs.
			scale := cfg.RankCompute.Scale(rank, iter)
			fwd := cfg.Compute.ForwardSeconds(len(labels)) * scale
			bwd := cfg.Compute.BackwardSeconds(len(labels)) * scale
			sched := simclock.NewIterSchedule(simTime, fwd, bwd, prefix)
			commEnd := sched.Start
			for i, b := range buckets {
				b.Gather()
				// Launch no earlier than this rank's bucket-ready time and
				// never before the previous collective completed (one
				// in-order communication stream, as real DDP schedules).
				t := sched.ReadyAt(i)
				if commEnd > t {
					t = commEnd
				}
				if timeline {
					t = cluster.LaunchBarrier(rank, t)
				}
				commEnd = hook.Sync(rank, b, t)
			}
			simTime = sched.Finish(commEnd)
			for _, b := range buckets {
				b.Scale(invWorld)
				b.Scatter()
			}
			if mask != nil {
				gse.Enforce(model, mask)
			}
			opt.Step(model.Params())
			iter++

			if evalNow(false) {
				acc := evaluate(model, testSet)
				res.Curve.Add(metrics.Point{Iter: iter, Epoch: epoch, SimTime: simTime, Acc: acc, Loss: lastLoss})
				emitProgress(cfg, hook, iter, epoch, simTime, acc, lastLoss)
			}
		}
		if evalNow(true) && cfg.EvalEvery == 0 {
			acc := evaluate(model, testSet)
			res.Curve.Add(metrics.Point{Iter: iter, Epoch: epoch, SimTime: simTime, Acc: acc, Loss: lastLoss})
			emitProgress(cfg, hook, iter, epoch, simTime, acc, lastLoss)
		}
	}

	var checksum float64
	for _, p := range model.Params() {
		checksum += p.W.Sum()
	}
	res.WeightChecksums[rank] = checksum

	if rank == 0 {
		res.Iterations = iter
		res.EpochsRun = cfg.Epochs
		res.SimSeconds = simTime
		if sr, ok := hook.(stableReporter); ok {
			res.StableFraction = sr.StableFraction()
		}
		if ar, ok := hook.(adaptiveReporter); ok {
			res.AdaptiveDecisions = ar.FormatCounts()
			res.AdaptiveSwitches = ar.FormatSwitches()
		}
	}
	return nil
}

// maskResetter is implemented by hooks whose per-bucket state derives from
// the sparsity pattern; the trainer resets them at the pruning step.
type maskResetter interface{ NotifyMaskInvalidated() }

// stableReporter exposes the compact-path fraction of the PacTrain-family
// hooks.
type stableReporter interface{ StableFraction() float64 }

// adaptiveReporter exposes the adaptive controller's decision telemetry.
type adaptiveReporter interface {
	FormatCounts() map[string]int
	FormatSwitches() int
}

// buildMask derives the pruning mask per the configured method. Magnitude
// methods depend only on the (replica-identical) weights; GraSP uses a probe
// batch drawn deterministically from the shared dataset so that every
// worker computes the same mask.
func buildMask(cfg *Config, model *nn.Model, trainSet *data.Dataset) (*prune.Mask, error) {
	switch cfg.PruneMethod {
	case prune.GlobalMagnitude, prune.LayerMagnitude:
		return prune.MagnitudePrune(model, cfg.PruneRatio, cfg.PruneMethod)
	case prune.GraSP:
		probeN := 64
		if probeN > trainSet.Len() {
			probeN = trainSet.Len()
		}
		x, labels := trainSet.Batch(0, probeN)
		computeGrads := func() {
			model.ZeroGrad()
			out := model.Forward(x, true)
			_, g := nn.SoftmaxCrossEntropy(out, labels)
			model.Backward(g)
		}
		mask, err := prune.GraSPPrune(model, cfg.PruneRatio, computeGrads)
		model.ZeroGrad()
		return mask, err
	}
	return nil, fmt.Errorf("core: unsupported prune method %v", cfg.PruneMethod)
}

// evaluate computes test accuracy in chunks (eval compute is excluded from
// the simulated clock, matching how the paper reports training time).
func evaluate(model *nn.Model, testSet *data.Dataset) float64 {
	const chunk = 64
	correct := 0.0
	total := 0
	for from := 0; from < testSet.Len(); from += chunk {
		x, labels := testSet.Batch(from, chunk)
		out := model.Forward(x, false)
		correct += nn.Accuracy(out, labels) * float64(len(labels))
		total += len(labels)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
