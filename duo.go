// Package duo is the public API of the DUO reproduction: a stealthy,
// targeted, black-box adversarial-example attack on DNN-based video
// retrieval systems via dual frame-pixel search (Yao et al., ICDCS 2023).
//
// The package bundles the full experimental stack — synthetic video
// corpora, trainable video feature extractors, a (optionally distributed)
// retrieval engine, surrogate-model stealing, the DUO attack pipeline
// (SparseTransfer + SparseQuery), three baseline attacks, and two
// defenses — behind a small workflow API:
//
//	sys, _ := duo.NewSystem(duo.SystemOptions{})        // victim service
//	surr, _ := sys.StealSurrogate(duo.SurrogateOptions{}) // black-box steal
//	rep, _ := sys.Attack(v, vt, surr, duo.AttackOptions{}) // run DUO
//	fmt.Println(rep.APAfter, rep.Spa, rep.PScore)
//
// Everything is deterministic given the seeds in the option structs.
package duo

import (
	"fmt"
	"math/rand"

	"duo/internal/attack"
	"duo/internal/core"
	"duo/internal/dataset"
	"duo/internal/metrics"
	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/retrieval"
	"duo/internal/surrogate"
	"duo/internal/telemetry"
	"duo/internal/trace"
	"duo/internal/video"
)

// Video is a labelled video clip ([N, C, H, W] pixels in [0, 255]).
type Video = video.Video

// Corpus is a train/test video collection.
type Corpus = dataset.Corpus

// Model is a differentiable video → feature-vector map.
type Model = models.Model

// Retriever answers top-m similarity queries (the black-box interface).
type Retriever = retrieval.Retriever

// Result is one retrieved gallery entry.
type Result = retrieval.Result

// Telemetry is a write-only metrics registry (counters, gauges, latency
// histograms, trajectory rings). Wire one into a System with SetTelemetry
// or into a single run with AttackOptions.Telemetry, then read it back via
// Snapshot, Summary, or the HTTP handlers in internal/telemetry. Enabling
// telemetry never changes any retrieval or attack result.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Tracer is a write-only deterministic span recorder. Wire one into a
// System with SetTrace or into a single run with AttackOptions.Trace, then
// export the span tree with WriteJSONL (analyzed offline by cmd/duotrace).
// With the default logical clock the recorded tree is bitwise reproducible
// across runs and worker counts; enabling tracing never changes any
// retrieval or attack result.
type Tracer = trace.Tracer

// NewTracer returns a tracer recording under the given trace ID (empty
// selects "trace").
func NewTracer(id string) *Tracer { return trace.New(id) }

// SystemOptions configure NewSystem.
type SystemOptions struct {
	// DatasetName labels the synthetic corpus (default "UCF101Sim").
	DatasetName string
	// Categories, TrainPerCategory, TestPerCategory size the corpus
	// (defaults: 6 / 8 / 4).
	Categories       int
	TrainPerCategory int
	TestPerCategory  int
	// Frames, Height, Width set clip geometry (defaults: 16 / 16 / 16).
	Frames int
	Height int
	Width  int
	// VictimArch is one of I3D, TPN, SlowFast, Resnet34 (default SlowFast).
	VictimArch string
	// VictimLoss is one of ArcFaceLoss, LiftedLoss, AngularLoss, Triplet
	// (default ArcFaceLoss).
	VictimLoss string
	// FeatureDim is the embedding size (default 32).
	FeatureDim int
	// TrainEpochs controls victim training (default 3).
	TrainEpochs int
	// M is the retrieval list length (default 10).
	M int
	// Nodes > 1 shards the gallery across that many in-process data
	// nodes behind a scatter/gather coordinator (Fig. 1's distributed
	// deployment); 0 or 1 uses a single-node engine.
	Nodes int
	// Hash switches the victim to Hamming-space retrieval over
	// median-thresholded binary codes (the HashNet-style deployment of
	// the paper's reference model [42]). Incompatible with Nodes > 1.
	Hash bool
	// Hardness ∈ [0, 1) controls category separability; the default 0.7
	// yields victims with paper-like (imperfect) retrieval mAPs. Set a
	// negative value for a maximally separable (easy) corpus.
	Hardness float64
	// Seed drives corpus generation and training.
	Seed int64
}

func (o *SystemOptions) applyDefaults() {
	if o.DatasetName == "" {
		o.DatasetName = "UCF101Sim"
	}
	if o.Categories == 0 {
		o.Categories = 6
	}
	if o.TrainPerCategory == 0 {
		o.TrainPerCategory = 8
	}
	if o.TestPerCategory == 0 {
		o.TestPerCategory = 4
	}
	if o.Frames == 0 {
		o.Frames = 16
	}
	if o.Height == 0 {
		o.Height = 16
	}
	if o.Width == 0 {
		o.Width = 16
	}
	if o.VictimArch == "" {
		o.VictimArch = "SlowFast"
	}
	if o.VictimLoss == "" {
		o.VictimLoss = "ArcFaceLoss"
	}
	if o.FeatureDim == 0 {
		o.FeatureDim = 32
	}
	if o.TrainEpochs == 0 {
		o.TrainEpochs = 3
	}
	if o.M == 0 {
		o.M = 10
	}
	if o.Hardness == 0 {
		o.Hardness = 0.7
	}
	if o.Hardness < 0 {
		o.Hardness = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// System is a complete victim environment: a synthetic corpus, a trained
// retrieval service, and helpers to steal surrogates and launch attacks.
type System struct {
	// Corpus holds the generated train/test videos; the train split is
	// the retrieval gallery.
	Corpus *Corpus
	// Victim answers R^m(v) queries (single-node or sharded).
	Victim Retriever
	// M is the retrieval list length used throughout.
	M int

	opts    SystemOptions
	engine  *retrieval.Engine
	cluster *retrieval.Cluster
	model   models.Model
	geom    models.Geometry
	tel     *telemetry.Registry
	tracer  *trace.Tracer
}

// NewSystem generates a corpus, trains the victim extractor with the
// requested metric loss, freezes it (models.Freeze), and indexes the
// gallery.
func NewSystem(opts SystemOptions) (*System, error) {
	opts.applyDefaults()
	corpus, err := dataset.Generate(dataset.Config{
		Name:             opts.DatasetName,
		Categories:       opts.Categories,
		TrainPerCategory: opts.TrainPerCategory,
		TestPerCategory:  opts.TestPerCategory,
		Frames:           opts.Frames,
		Channels:         3,
		Height:           opts.Height,
		Width:            opts.Width,
		Seed:             opts.Seed,
		Hardness:         opts.Hardness,
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	geom := models.Geometry{Frames: opts.Frames, Channels: 3, Height: opts.Height, Width: opts.Width}
	m, err := models.Build(opts.VictimArch, rng, geom, opts.FeatureDim)
	if err != nil {
		return nil, err
	}
	loss, err := losses.ByName(opts.VictimLoss, rng, opts.Categories, opts.FeatureDim)
	if err != nil {
		return nil, err
	}
	tc := models.DefaultTrainConfig()
	tc.Epochs = opts.TrainEpochs
	tc.Seed = opts.Seed
	if _, err := models.Train(m, loss, corpus.Train, tc); err != nil {
		return nil, fmt.Errorf("duo: train victim: %w", err)
	}
	models.Freeze(m)

	sys := &System{Corpus: corpus, M: opts.M, opts: opts, model: m, geom: geom}
	switch {
	case opts.Hash && opts.Nodes > 1:
		return nil, fmt.Errorf("duo: Hash and Nodes > 1 are mutually exclusive")
	case opts.Hash:
		sys.Victim = retrieval.NewHashEngine(m, corpus.Train)
	case opts.Nodes > 1:
		sys.cluster = retrieval.NewLocalCluster(m, corpus.Train, opts.Nodes)
		sys.Victim = sys.cluster
	default:
		sys.engine = retrieval.NewEngine(m, corpus.Train)
		sys.Victim = sys.engine
	}
	return sys, nil
}

// Close releases distributed resources, if any.
func (s *System) Close() error {
	if s.cluster != nil {
		return s.cluster.Close()
	}
	return nil
}

// SetTelemetry wires the system's retrieval service into the registry
// (per-query scan latencies, cluster gather timings, per-node health
// counters) and makes it the default registry for Attack runs; nil — the
// default — disables instrumentation at zero hot-path cost.
func (s *System) SetTelemetry(r *telemetry.Registry) {
	s.tel = r
	if s.engine != nil {
		s.engine.SetTelemetry(r)
	}
	if s.cluster != nil {
		s.cluster.SetTelemetry(r)
	}
}

// SetTrace wires the tracer into the system's retrieval service (a
// sharded victim records per-node child spans under each attack query) and
// makes it the default tracer for Attack runs; nil — the default —
// disables span recording at zero hot-path cost.
func (s *System) SetTrace(t *Tracer) {
	s.tracer = t
	if s.cluster != nil {
		s.cluster.SetTrace(t)
	}
}

// VictimModel exposes the victim's extractor for defense evaluation.
// Attacks must not use it.
func (s *System) VictimModel() Model { return s.model }

// MAP evaluates the victim's retrieval quality over the test split.
func (s *System) MAP() float64 {
	return retrieval.EvaluateMAP(s.Victim, s.Corpus.Test, s.M)
}

// SamplePairs draws n attack (original, target) pairs with distinct labels.
func (s *System) SamplePairs(seed int64, n int) []dataset.AttackPair {
	rng := rand.New(rand.NewSource(seed))
	return dataset.SamplePairs(rng, s.Corpus.Train, n)
}

// SurrogateOptions configure StealSurrogate.
type SurrogateOptions struct {
	// Arch is C3D or Resnet18 (default C3D).
	Arch string
	// MaxSamples caps the stolen dataset size (default 48).
	MaxSamples int
	// FeatureDim is the surrogate embedding size (default: victim's).
	FeatureDim int
	// Epochs controls surrogate training (default 5).
	Epochs int
	// Seed drives stealing and training.
	Seed int64
}

// StealSurrogate queries the victim to build a rank-list training set
// (§IV-B-1) and fits a surrogate on it. The surrogate comes back frozen
// (models.Freeze): attacks backpropagate through it to pixels only, and
// may share it across goroutines.
func (s *System) StealSurrogate(opts SurrogateOptions) (Model, error) {
	if opts.Arch == "" {
		opts.Arch = "C3D"
	}
	if opts.MaxSamples == 0 {
		opts.MaxSamples = 48
	}
	if opts.FeatureDim == 0 {
		opts.FeatureDim = s.opts.FeatureDim
	}
	if opts.Epochs == 0 {
		opts.Epochs = 5
	}
	if opts.Seed == 0 {
		opts.Seed = s.opts.Seed + 7
	}

	scfg := surrogate.DefaultStealConfig()
	scfg.M = s.M
	scfg.MaxSamples = opts.MaxSamples
	scfg.Rounds = opts.MaxSamples/4 + 2
	scfg.Seed = opts.Seed
	samples, err := surrogate.Steal(s.Victim, surrogate.CorpusLookup(s.Corpus.Train), s.Corpus.Test, scfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	m, err := models.Build(opts.Arch, rng, s.geom, opts.FeatureDim)
	if err != nil {
		return nil, err
	}
	tcfg := surrogate.DefaultTrainConfig()
	tcfg.Epochs = opts.Epochs
	tcfg.Seed = opts.Seed
	if _, err := surrogate.Train(m, samples, tcfg); err != nil {
		return nil, err
	}
	models.Freeze(m)
	return m, nil
}

// AttackOptions configure Attack. Zero values select the defaults of
// core.DefaultConfig for the system's geometry.
type AttackOptions struct {
	// K is the pixel budget (1ᵀℐ = k).
	K int
	// N is the frame budget (‖𝓕‖₂,₀ = n).
	N int
	// Tau bounds per-element magnitudes.
	Tau float64
	// Queries is the victim query budget (default 600).
	Queries int
	// IterNumH loops SparseTransfer↔SparseQuery (default 2).
	IterNumH int
	// Strategy selects the black-box optimizer driving the victim-query
	// stage: "sparsequery" (empty value and default — the paper's
	// Algorithm 2 coordinate descent), "sparsers" (Sparse-RS random
	// search), or "evolutionary" (population-based search). Every strategy
	// runs inside the same billing/tracing/shed-refund harness, so query
	// counts stay comparable across strategies. See Strategies().
	Strategy string
	// Seed drives the query stage's randomness.
	Seed int64
	// Telemetry optionally collects this run's stage timings, query-budget
	// burn, and 𝕋-trajectory tail (write-only; the attack result is
	// identical either way). Nil falls back to the registry wired with
	// System.SetTelemetry, if any.
	Telemetry *telemetry.Registry
	// Trace optionally records this run's span tree (attack.run → round →
	// stage → retrieve, plus per-node children on a sharded victim).
	// Write-only like Telemetry; nil falls back to the tracer wired with
	// System.SetTrace, if any.
	Trace *Tracer
}

// Report summarizes an attack run with the paper's measures.
type Report struct {
	// APBefore and APAfter are AP@m between the (original | adversarial)
	// video's retrieval list and the target's, in percent. The attack
	// succeeds when APAfter > APBefore (§V-C). An untargeted run measures
	// both against the original's own list instead, so APBefore is 100 and
	// success is APAfter < APBefore.
	APBefore float64
	APAfter  float64
	// Spa is the number of perturbed elements; PerturbedFrames is ‖φ‖₂,₀.
	Spa             int
	PerturbedFrames int
	// PScore is the perceptibility score of [49].
	PScore float64
	// PSNR (dB) and SSIM quantify visual stealthiness of Adv vs the
	// original (higher PSNR / SSIM closer to 1 = less perceptible).
	PSNR float64
	SSIM float64
	// Queries is the number of victim queries consumed.
	Queries int
	// Trajectory is the 𝕋 objective over query steps.
	Trajectory []float64
	// Adv is the synthesized adversarial video.
	Adv *Video

	// untargeted records which way success points (set by AttackUntargeted).
	untargeted bool
}

// Strategies lists the registered black-box optimizer strategy names
// accepted by AttackOptions.Strategy (and `duoattack -strategy`).
func Strategies() []string { return core.OptimizerNames() }

// Attack runs the full DUO pipeline against the system's victim.
func (s *System) Attack(v, vt *Video, surr Model, opts AttackOptions) (*Report, error) {
	return s.attack(core.DefaultConfig(s.geom), v, vt, surr, opts)
}

// attack maps the options onto cfg (the targeted or untargeted defaults for
// the system's geometry), runs the pipeline and assembles the report.
func (s *System) attack(cfg core.Config, v, vt *Video, surr Model, opts AttackOptions) (*Report, error) {
	if opts.K > 0 {
		cfg.Transfer.K = opts.K
	}
	if opts.N > 0 {
		cfg.Transfer.N = opts.N
	}
	if opts.Tau > 0 {
		cfg.Transfer.Tau = opts.Tau
		cfg.Query.Tau = opts.Tau
	}
	if opts.Queries > 0 {
		cfg.Query.MaxQueries = opts.Queries
	} else {
		cfg.Query.MaxQueries = 600
	}
	if opts.IterNumH > 0 {
		cfg.IterNumH = opts.IterNumH
	}
	cfg.Query.Strategy = opts.Strategy
	if opts.Seed == 0 {
		opts.Seed = s.opts.Seed + 13
	}

	ctx := &attack.Context{Victim: s.Victim, M: s.M, Rng: rand.New(rand.NewSource(opts.Seed)), Telemetry: s.attackTelemetry(opts), Trace: s.attackTrace(opts)}
	res, err := core.Run(ctx, surr, v, vt, cfg)
	if err != nil {
		return nil, err
	}
	return s.report(v, vt, res.Outcome), nil
}

// attackTelemetry picks the per-run registry: the run's own, else the
// system-wide one.
func (s *System) attackTelemetry(opts AttackOptions) *telemetry.Registry {
	if opts.Telemetry != nil {
		return opts.Telemetry
	}
	return s.tel
}

// attackTrace picks the per-run tracer: the run's own, else the
// system-wide one. Note a sharded victim records node spans on the tracer
// wired with SetTrace — a per-run tracer that differs from it still traces
// the attack side, with node spans parented remotely across the two.
func (s *System) attackTrace(opts AttackOptions) *trace.Tracer {
	if opts.Trace != nil {
		return opts.Trace
	}
	return s.tracer
}

// AttackUntargeted runs the untargeted DUO variant (§I): the adversarial
// video's retrieval list is pushed away from the original's, with no target
// video. In the returned Report, APBefore/APAfter measure AP@m between the
// (original | adversarial) list and the ORIGINAL's own list — the attack
// succeeds when APAfter drops well below APBefore (≈100).
func (s *System) AttackUntargeted(v *Video, surr Model, opts AttackOptions) (*Report, error) {
	return s.attack(core.UntargetedConfig(s.geom), v, nil, surr, opts)
}

// report assembles a Report from an attack outcome. APBefore/APAfter are
// measured against the target's list, or — untargeted, vt == nil — against
// the original's own.
func (s *System) report(v, vt *Video, out *attack.Outcome) *Report {
	origList := retrieval.IDs(s.Victim.Retrieve(v, s.M))
	refList := origList
	if vt != nil {
		refList = retrieval.IDs(s.Victim.Retrieve(vt, s.M))
	}
	advList := retrieval.IDs(s.Victim.Retrieve(out.Adv, s.M))
	return &Report{
		APBefore:        metrics.APAtM(origList, refList) * 100,
		APAfter:         metrics.APAtM(advList, refList) * 100,
		Spa:             out.Spa(),
		PerturbedFrames: out.PerturbedFrames(),
		PScore:          out.PScore(),
		PSNR:            video.PSNR(v, out.Adv),
		SSIM:            video.SSIM(v, out.Adv),
		Queries:         out.Queries,
		Trajectory:      out.Trajectory,
		Adv:             out.Adv,
		untargeted:      vt == nil,
	}
}

// String renders the report in the layout duoattack prints.
func (r *Report) String() string {
	succeeded := r.APAfter > r.APBefore
	if r.untargeted {
		succeeded = r.APAfter < r.APBefore
	}
	verdict := "no headway"
	if succeeded {
		verdict = "SUCCEEDED"
	}
	return fmt.Sprintf(
		"AP@m %.2f%% → %.2f%% (%s) | Spa %d over %d frames | PScore %.3f | PSNR %.1f dB | SSIM %.4f | %d queries",
		r.APBefore, r.APAfter, verdict, r.Spa, r.PerturbedFrames, r.PScore, r.PSNR, r.SSIM, r.Queries)
}

// Retrieve proxies a top-m query to the victim.
func (s *System) Retrieve(v *Video, m int) []Result { return s.Victim.Retrieve(v, m) }
