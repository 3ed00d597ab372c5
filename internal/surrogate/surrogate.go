// Package surrogate implements the model-stealing stage of SparseTransfer
// (§IV-B-1): it queries the black-box victim with videos the attacker
// holds, records the returned rank lists, and trains a white-box surrogate
// S(·) with the ranked-list margin loss so that S's feature space
// approximates the victim's retrieval order.
package surrogate

import (
	"fmt"
	"math/rand"

	"duo/internal/models"
	"duo/internal/nn"
	"duo/internal/nn/losses"
	"duo/internal/opt"
	"duo/internal/retrieval"
	"duo/internal/tensor"
	"duo/internal/video"
)

// Lookup maps a retrieved video ID to its content. The attacker can fetch
// any video the service returns (they are public gallery entries).
type Lookup func(id string) (*video.Video, bool)

// CorpusLookup builds a Lookup over a set of videos.
func CorpusLookup(vs []*video.Video) Lookup {
	byID := make(map[string]*video.Video, len(vs))
	for _, v := range vs {
		byID[v.ID] = v
	}
	return func(id string) (*video.Video, bool) {
		v, ok := byID[id]
		return v, ok
	}
}

// Sample is one stolen training sample: an anchor the attacker queried with
// and the victim's ranked answer list (§IV-B-1's rows of T).
type Sample struct {
	Anchor *video.Video
	Ranked []*video.Video
}

// StealConfig controls dataset construction.
type StealConfig struct {
	// Rounds is Z: how many times Steps 1–2 repeat.
	Rounds int
	// PerRound is M: how many returned videos are re-queried per round.
	PerRound int
	// M is the retrieval list length requested per query.
	M int
	// MaxSamples caps the total stolen samples (the paper's surrogate
	// dataset sizes: 165 … 8,421 videos, scaled down here).
	MaxSamples int
	// Seed drives the random walk.
	Seed int64
}

// DefaultStealConfig returns settings suitable for the scaled corpora.
func DefaultStealConfig() StealConfig {
	return StealConfig{Rounds: 4, PerRound: 3, M: 8, MaxSamples: 32, Seed: 1}
}

// Steal runs the random-walk dataset construction of §IV-B-1: query with a
// random seed video, record the rank list, recurse into M of the returned
// videos, and repeat for Z rounds.
func Steal(victim retrieval.Retriever, lookup Lookup, pool []*video.Video, cfg StealConfig) ([]Sample, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("surrogate: empty attacker video pool")
	}
	if cfg.M <= 1 {
		return nil, fmt.Errorf("surrogate: list length m=%d too small", cfg.M)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var samples []Sample
	seen := map[string]bool{}

	query := func(v *video.Video) []*video.Video {
		rs := victim.Retrieve(v, cfg.M)
		ranked := make([]*video.Video, 0, len(rs))
		for _, r := range rs {
			if g, ok := lookup(r.ID); ok {
				ranked = append(ranked, g)
			}
		}
		return ranked
	}

	for round := 0; round < cfg.Rounds && len(samples) < cfg.MaxSamples; round++ {
		// Step 1: a fresh random video from the attacker's pool.
		vr := pool[rng.Intn(len(pool))]
		ranked := query(vr)
		if len(ranked) >= 2 {
			samples = append(samples, Sample{Anchor: vr, Ranked: ranked})
		}
		// Step 2: recurse into M uniformly selected returned videos.
		for _, i := range rng.Perm(len(ranked)) {
			if len(samples) >= cfg.MaxSamples {
				break
			}
			g := ranked[i]
			if seen[g.ID] {
				continue
			}
			seen[g.ID] = true
			sub := query(g)
			if len(sub) >= 2 {
				samples = append(samples, Sample{Anchor: g, Ranked: sub})
			}
			if i >= cfg.PerRound {
				break
			}
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("surrogate: stealing produced no samples")
	}
	return samples, nil
}

// TrainConfig controls surrogate fitting.
type TrainConfig struct {
	// Epochs over the stolen samples.
	Epochs int
	// LR is the Adam learning rate.
	LR float64
	// Margin is γ in the ranked-list loss (0.2 in the paper).
	Margin float64
	// Seed shuffles sample order.
	Seed int64
}

// DefaultTrainConfig mirrors the paper's settings (γ=0.2, Adam).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 5, LR: 0.01, Margin: 0.2, Seed: 1}
}

// Train fits the surrogate to the stolen rank lists, returning the mean
// loss per epoch. A frozen s is a models.ErrFrozen error.
func Train(s models.Model, samples []Sample, cfg TrainConfig) ([]float64, error) {
	if models.Frozen(s) {
		return nil, fmt.Errorf("surrogate: train %s: %w", s.Name(), models.ErrFrozen)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("surrogate: no training samples")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	optimizer := opt.NewAdam(cfg.LR)
	loss := losses.RankedList{Margin: cfg.Margin}
	params := s.Params()

	history := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		total := 0.0
		for _, i := range rng.Perm(len(samples)) {
			sm := samples[i]
			anchorEmb, anchorCache := s.Forward(sm.Anchor.Data)
			rankedCaches := make([]nn.Cache, len(sm.Ranked))
			rankedList := make([]*tensor.Tensor, len(sm.Ranked))
			for j, rv := range sm.Ranked {
				rankedList[j], rankedCaches[j] = s.Forward(rv.Data)
			}

			lv, ga, gs := loss.Loss(anchorEmb, rankedList)
			total += lv

			opt.ZeroGrads(params)
			s.Backward(anchorCache, ga)
			for j := range sm.Ranked {
				s.Backward(rankedCaches[j], gs[j])
			}
			optimizer.Step(params)
		}
		history = append(history, total/float64(len(samples)))
	}
	return history, nil
}

// Agreement measures how well the surrogate's ranking matches the victim's
// on held-out queries: the mean NDCG-style co-occurrence between the two
// top-m lists when both retrieve from the same gallery. Used by Fig. 4's
// surrogate-quality sweeps.
func Agreement(victim retrieval.Retriever, s models.Model, gallery []*video.Video, queries []*video.Video, m int) float64 {
	if len(queries) == 0 {
		return 0
	}
	sEng := retrieval.NewEngine(s, gallery)
	total := 0.0
	for _, q := range queries {
		a := retrieval.IDs(victim.Retrieve(q, m))
		b := retrieval.IDs(sEng.Retrieve(q, m))
		hits := 0
		inB := map[string]bool{}
		for _, id := range b {
			inB[id] = true
		}
		for _, id := range a {
			if inB[id] {
				hits++
			}
		}
		if len(a) > 0 {
			total += float64(hits) / float64(len(a))
		}
	}
	return total / float64(len(queries))
}
