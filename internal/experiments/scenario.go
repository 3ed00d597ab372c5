package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"duo/internal/dataset"
	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/retrieval"
	"duo/internal/surrogate"
)

// Dataset names used throughout the tables.
const (
	UCF101Sim = "UCF101Sim"
	HMDB51Sim = "HMDB51Sim"
)

// DatasetNames lists the two synthetic corpora in paper order.
func DatasetNames() []string { return []string{UCF101Sim, HMDB51Sim} }

// DefaultVictimLoss is the loss the attack tables train victims with
// (the paper fixes ArcFace outside Table IV / Fig. 3).
const DefaultVictimLoss = "ArcFaceLoss"

// VictimLossNames lists the three victim losses of Fig. 3 / Table IV.
func VictimLossNames() []string { return []string{"ArcFaceLoss", "LiftedLoss", "AngularLoss"} }

// Scenario lazily builds and caches the expensive artifacts experiments
// share: corpora, trained victim engines, and stolen surrogates. It is safe
// for sequential use (experiments run one at a time).
type Scenario struct {
	Opts Options
	P    Params

	mu         sync.Mutex
	corpora    map[string]*dataset.Corpus
	victims    map[string]*retrieval.Engine
	surrogates map[string]models.Model
}

// NewScenario returns an empty scenario for the options.
func NewScenario(o Options) *Scenario {
	return &Scenario{
		Opts:       o,
		P:          ParamsFor(o.Scale),
		corpora:    make(map[string]*dataset.Corpus),
		victims:    make(map[string]*retrieval.Engine),
		surrogates: make(map[string]models.Model),
	}
}

// Geometry returns the clip geometry of the scenario.
func (s *Scenario) Geometry() models.Geometry {
	return models.Geometry{Frames: s.P.Frames, Channels: 3, Height: s.P.Height, Width: s.P.Width}
}

// Corpus returns (building on first use) the named synthetic corpus.
// HMDB51Sim is roughly half UCF101Sim's size, mirroring Table I's ratio.
func (s *Scenario) Corpus(name string) (*dataset.Corpus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.corpora[name]; ok {
		return c, nil
	}
	cfg := dataset.Config{
		Name:             name,
		Categories:       s.P.Categories,
		TrainPerCategory: s.P.TrainPerCat,
		TestPerCategory:  s.P.TestPerCat,
		Frames:           s.P.Frames,
		Channels:         3,
		Height:           s.P.Height,
		Width:            s.P.Width,
		Seed:             s.Opts.Seed,
		// Imperfectly separable categories push trained-victim mAPs and
		// no-attack AP@m toward the paper's ranges (Fig. 3 / Table II).
		Hardness: 0.6,
	}
	switch name {
	case UCF101Sim:
		// full preset
	case HMDB51Sim:
		cfg.Categories = max(2, s.P.Categories/2)
		cfg.Seed = s.Opts.Seed + 1000
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	c, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus %s: %w", name, err)
	}
	s.corpora[name] = c
	return c, nil
}

// buildLoss instantiates a metric loss by its table name.
func (s *Scenario) buildLoss(name string, rng *rand.Rand, classes int) (losses.MetricLoss, error) {
	switch name {
	case "ArcFaceLoss":
		return losses.NewArcFace(rng, classes, s.P.FeatDim), nil
	case "LiftedLoss":
		return losses.Lifted{Margin: 1.0}, nil
	case "AngularLoss":
		return losses.Angular{AlphaDeg: 40}, nil
	case "Triplet":
		return losses.Triplet{Margin: 0.2}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown loss %q", name)
	}
}

// Victim returns (training on first use) a victim retrieval engine for the
// dataset, backbone, and loss. Its model is frozen once trained.
func (s *Scenario) Victim(ds, arch, lossName string) (*retrieval.Engine, error) {
	key := ds + "|" + arch + "|" + lossName
	s.mu.Lock()
	if e, ok := s.victims[key]; ok {
		s.mu.Unlock()
		return e, nil
	}
	s.mu.Unlock()

	c, err := s.Corpus(ds)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Opts.Seed + int64(len(key))*7919))
	m, err := models.Build(arch, rng, s.Geometry(), s.P.FeatDim)
	if err != nil {
		return nil, err
	}
	loss, err := s.buildLoss(lossName, rng, c.Categories)
	if err != nil {
		return nil, err
	}
	tc := models.DefaultTrainConfig()
	tc.Epochs = s.P.VictimEpoch
	tc.Seed = s.Opts.Seed
	if _, err := models.Train(m, loss, c.Train, tc); err != nil {
		return nil, fmt.Errorf("experiments: train victim %s: %w", key, err)
	}
	models.Freeze(m)
	eng := retrieval.NewEngine(m, c.Train)
	eng.SetTelemetry(s.Opts.Telemetry)

	s.mu.Lock()
	s.victims[key] = eng
	s.mu.Unlock()
	return eng, nil
}

// Surrogate steals a surrogate of the given backbone against the victim,
// capped at stealCap samples, with output feature size featDim. The cached
// surrogate is frozen, so the pairs of a cell share it concurrently.
func (s *Scenario) Surrogate(ds, victimArch, victimLoss, surrArch string, stealCap, featDim int) (models.Model, error) {
	key := fmt.Sprintf("%s|%s|%s|%s|%d|%d", ds, victimArch, victimLoss, surrArch, stealCap, featDim)
	s.mu.Lock()
	if m, ok := s.surrogates[key]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()

	victim, err := s.Victim(ds, victimArch, victimLoss)
	if err != nil {
		return nil, err
	}
	c, err := s.Corpus(ds)
	if err != nil {
		return nil, err
	}
	scfg := surrogate.DefaultStealConfig()
	scfg.M = s.P.M
	scfg.MaxSamples = stealCap
	scfg.Rounds = max(2, stealCap/4)
	scfg.Seed = s.Opts.Seed
	samples, err := surrogate.Steal(victim, surrogate.CorpusLookup(c.Train), c.Test, scfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: steal for %s: %w", key, err)
	}
	rng := rand.New(rand.NewSource(s.Opts.Seed + int64(len(key))*104729))
	m, err := models.Build(surrArch, rng, s.Geometry(), featDim)
	if err != nil {
		return nil, err
	}
	tcfg := surrogate.DefaultTrainConfig()
	tcfg.Seed = s.Opts.Seed
	if _, err := surrogate.Train(m, samples, tcfg); err != nil {
		return nil, fmt.Errorf("experiments: train surrogate %s: %w", key, err)
	}
	models.Freeze(m)

	s.mu.Lock()
	s.surrogates[key] = m
	s.mu.Unlock()
	return m, nil
}

// Pairs draws the attack evaluation pairs for a dataset (the paper's "ten
// pairs", scaled).
func (s *Scenario) Pairs(ds string) ([]dataset.AttackPair, error) {
	c, err := s.Corpus(ds)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Opts.Seed + 31337))
	return dataset.SamplePairs(rng, c.Train, s.P.Pairs), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
