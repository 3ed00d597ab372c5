package models

import (
	"fmt"
	"math/rand"
	"sort"

	"duo/internal/nn"
	"duo/internal/nn/losses"
	"duo/internal/opt"
	"duo/internal/tensor"
	"duo/internal/video"
)

// TrainConfig controls metric-learning training.
type TrainConfig struct {
	// Epochs is the number of passes; each epoch runs StepsPerEpoch
	// PK-sampled batches.
	Epochs int
	// StepsPerEpoch is the number of optimizer steps per epoch.
	StepsPerEpoch int
	// CategoriesPerBatch (P) and SamplesPerCategory (K) define PK batch
	// sampling: every batch holds P×K videos with guaranteed positives.
	CategoriesPerBatch int
	SamplesPerCategory int
	// LR is the Adam learning rate.
	LR float64
	// Seed drives batch sampling.
	Seed int64
}

// DefaultTrainConfig returns a configuration adequate for the scaled-down
// corpora used in tests and benches.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:             6,
		StepsPerEpoch:      12,
		CategoriesPerBatch: 3,
		SamplesPerCategory: 2,
		LR:                 0.01,
		Seed:               1,
	}
}

// Train fits m (and any loss parameters) to the labelled videos with the
// given metric loss, returning the mean loss per epoch. A frozen m is an
// ErrFrozen error.
func Train(m Model, loss losses.MetricLoss, vids []*video.Video, cfg TrainConfig) ([]float64, error) {
	if Frozen(m) {
		return nil, fmt.Errorf("models: train %s: %w", m.Name(), ErrFrozen)
	}
	if len(vids) == 0 {
		return nil, fmt.Errorf("models: no training videos")
	}
	byLabel := map[int][]*video.Video{}
	for _, v := range vids {
		byLabel[v.Label] = append(byLabel[v.Label], v)
	}
	if len(byLabel) < 2 {
		return nil, fmt.Errorf("models: need ≥2 categories to train a metric loss, got %d", len(byLabel))
	}
	labels := make([]int, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Ints(labels) // deterministic order regardless of map iteration

	rng := rand.New(rand.NewSource(cfg.Seed))
	optimizer := opt.NewAdam(cfg.LR)
	params := append(append([]*nn.Param(nil), m.Params()...), loss.Params()...)

	p := cfg.CategoriesPerBatch
	if p > len(labels) {
		p = len(labels)
	}
	if p < 2 {
		p = 2
	}
	k := cfg.SamplesPerCategory
	if k < 1 {
		k = 1
	}

	history := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		total := 0.0
		for step := 0; step < cfg.StepsPerEpoch; step++ {
			// PK sampling: p categories, k instances each.
			perm := rng.Perm(len(labels))[:p]
			var batch []*video.Video
			for _, li := range perm {
				pool := byLabel[labels[li]]
				for s := 0; s < k; s++ {
					batch = append(batch, pool[rng.Intn(len(pool))])
				}
			}

			caches := make([]nn.Cache, len(batch))
			embs := make([]*tensor.Tensor, len(batch))
			lbls := make([]int, len(batch))
			for i, v := range batch {
				embs[i], caches[i] = m.Forward(v.Data)
				lbls[i] = v.Label
			}

			lv, grads := loss.Loss(embs, lbls)
			total += lv

			opt.ZeroGrads(params)
			for i := range batch {
				m.Backward(caches[i], grads[i])
			}
			optimizer.Step(params)
		}
		history = append(history, total/float64(cfg.StepsPerEpoch))
	}
	return history, nil
}

// Pretrain runs a classification pre-training stage — the analogue of the
// Kinetics pre-training the paper's victim backbones ship with — by
// fitting the model under a softmax cross-entropy head, then returns the
// final training accuracy of that head. A frozen m is an ErrFrozen error,
// from Train.
func Pretrain(m Model, vids []*video.Video, classes int, cfg TrainConfig) (float64, error) {
	if classes < 2 {
		return 0, fmt.Errorf("models: pretraining needs ≥2 classes, got %d", classes)
	}
	head := losses.NewCrossEntropy(rand.New(rand.NewSource(cfg.Seed+1)), classes, m.FeatureDim())
	if _, err := Train(m, head, vids, cfg); err != nil {
		return 0, err
	}
	embs := make([]*tensor.Tensor, len(vids))
	labels := make([]int, len(vids))
	for i, v := range vids {
		embs[i] = Embed(m, v)
		labels[i] = v.Label
	}
	return head.Accuracy(embs, labels), nil
}
