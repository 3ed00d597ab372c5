package main

import (
	"fmt"
	"math/rand"
	"time"

	"duo"
	"duo/internal/models"
	"duo/internal/retrieval"
	"duo/internal/tensor"
	"duo/internal/video"
)

// sizing fixes every shape of the system under test and of the load; only
// the seed varies between runs. It is stamped into every result file.
type sizing struct {
	Name             string `json:"name"`
	Categories       int    `json:"categories"`
	TrainPerCategory int    `json:"train_per_category"`
	TestPerCategory  int    `json:"test_per_category"`
	Frames           int    `json:"frames"`
	Side             int    `json:"side"`
	FeatureDim       int    `json:"feature_dim"`
	M                int    `json:"m"`
	VictimEpochs     int    `json:"victim_epochs"`
	VictimArch       string `json:"victim_arch"`
	SurrogateArch    string `json:"surrogate_arch"`
	SurrogateSamples int    `json:"surrogate_samples"`
	SurrogateEpochs  int    `json:"surrogate_epochs"`
	// The fleet: FleetRows gallery rows (the real embeddings plus seeded
	// filler) split evenly over FleetNodes loopback TCP nodes.
	FleetRows  int `json:"fleet_rows"`
	FleetNodes int `json:"fleet_nodes"`
	FleetConns int `json:"fleet_conns"`
	// Clients is the number of load-generator goroutines of the serve
	// workloads (the attack workloads have one caller).
	Clients int `json:"clients"`
	// Attack budgets and SparseTransfer↔SparseQuery round counts.
	AttackPairs    int `json:"attack_pairs"`
	TransferBudget int `json:"attack_transfer_budget"`
	TransferRounds int `json:"attack_transfer_rounds"`
	QueryBudget    int `json:"attack_query_budget"`
	QueryRounds    int `json:"attack_query_rounds"`
	// CallGroup is how many consecutive victim calls of an attack loop
	// form one latency sample (see calmLatency).
	CallGroup int `json:"attack_call_group"`
	// Open-loop plan of serve_fleet: offered rates, the share of the
	// measured time each gets, and the p95 limit a rate must meet.
	Rates      []float64 `json:"rates_qps"`
	RateShares []float64 `json:"rate_shares"`
	P95LimitMs float64   `json:"p95_limit_ms"`
	// Setups is how many times an untraced run sets the system up;
	// WarmupS precedes every serve measurement.
	Setups  int     `json:"setups"`
	WarmupS float64 `json:"warmup_s"`
}

var fullSizing = sizing{
	Name: "full", Categories: 6, TrainPerCategory: 8, TestPerCategory: 4,
	Frames: 16, Side: 16, FeatureDim: 32, M: 10, VictimEpochs: 3,
	VictimArch: "SlowFast", SurrogateArch: "C3D", SurrogateSamples: 12, SurrogateEpochs: 2,
	FleetRows: 20000, FleetNodes: 3, FleetConns: 2, Clients: 2,
	AttackPairs: 8, TransferBudget: 120, TransferRounds: 2, QueryBudget: 1000, QueryRounds: 1, CallGroup: 60,
	Rates: []float64{250, 500, 750}, RateShares: []float64{1. / 6, 1. / 2, 1. / 3}, P95LimitMs: 25,
	Setups: 3, WarmupS: 1,
}

// smokeSizing is the seconds-long size `go test ./bench` runs: same code
// paths, tiny clips. Its numbers mean nothing.
var smokeSizing = sizing{
	Name: "smoke", Categories: 3, TrainPerCategory: 4, TestPerCategory: 2,
	Frames: 4, Side: 8, FeatureDim: 8, M: 5, VictimEpochs: 1,
	VictimArch: "SlowFast", SurrogateArch: "C3D", SurrogateSamples: 4, SurrogateEpochs: 1,
	FleetRows: 300, FleetNodes: 3, FleetConns: 2, Clients: 2,
	AttackPairs: 2, TransferBudget: 12, TransferRounds: 2, QueryBudget: 24, QueryRounds: 1, CallGroup: 6,
	Rates: []float64{100, 200, 300}, RateShares: []float64{1. / 3, 1. / 3, 1. / 3}, P95LimitMs: 50,
	Setups: 1, WarmupS: 0.05,
}

func (z sizing) geometry() models.Geometry {
	return models.Geometry{Frames: z.Frames, Channels: 3, Height: z.Side, Width: z.Side}
}

// row is one gallery entry as the brute-force reference sees it.
type row struct {
	ID    string
	Label int
	Feat  *tensor.Tensor
}

// setupParts is where one set-up's time went; Total is their sum.
type setupParts struct {
	SystemNew, Surrogate, IndexBuild time.Duration
}

func (p setupParts) total() time.Duration { return p.SystemNew + p.Surrogate + p.IndexBuild }

// fixture is one set-up system under test. A workload builds only the parts
// it drives: the surrogate for the attacks, the fleet for the two workloads
// that cross the wire, the in-process engine for the other two.
type fixture struct {
	z   sizing
	sys *duo.System
	// raw is the victim's extractor as trained; model is what the victim
	// under test embeds with — raw, or its span-recording wrapper.
	raw, model models.Model
	surrogate  models.Model
	engine     *retrieval.Engine
	fleet      *fleet
	// gallery is every row the victim under test indexes, for the
	// brute-force check; queries is the clip pool the serve workloads draw
	// from, all distinct.
	gallery []row
	queries []*video.Video
	parts   setupParts
}

// fleet is the distributed victim: in-process node servers on loopback TCP
// behind a RequireAll coordinator, no retry layer.
type fleet struct {
	servers    []*retrieval.NodeServer
	transports []*tracedTransport // nil entries when untraced
	cluster    *retrieval.Cluster
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	f.cluster.Close()
	for _, s := range f.servers {
		s.Close()
	}
}

func (fx *fixture) close() {
	fx.fleet.close()
	fx.sys.Close()
}

// setUp builds the system a workload needs from the seed. tr, when non-nil,
// is wired into every layer boundary (and stays off until the run enables it).
func setUp(w *workload, z sizing, seed int64, tr *tracer) (*fixture, error) {
	fx := &fixture{z: z}
	t0 := wallNow()
	sys, err := duo.NewSystem(duo.SystemOptions{
		Categories: z.Categories, TrainPerCategory: z.TrainPerCategory, TestPerCategory: z.TestPerCategory,
		Frames: z.Frames, Height: z.Side, Width: z.Side,
		VictimArch: z.VictimArch, FeatureDim: z.FeatureDim, TrainEpochs: z.VictimEpochs, M: z.M, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("set up victim: %w", err)
	}
	fx.sys = sys
	fx.raw = sys.VictimModel()
	fx.model = fx.raw
	if tr != nil {
		fx.model = &tracedModel{Model: fx.raw, tr: tr, fwd: spanVictimFwd, publishes: true}
	}
	fx.queries = append(append([]*video.Video(nil), sys.Corpus.Test...), sys.Corpus.Train...)
	fx.parts.SystemNew = wallNow().Sub(t0)

	if w.attack {
		t0 = wallNow()
		surr, err := sys.StealSurrogate(duo.SurrogateOptions{Arch: z.SurrogateArch, MaxSamples: z.SurrogateSamples, Epochs: z.SurrogateEpochs})
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("set up surrogate: %w", err)
		}
		fx.surrogate = surr
		if tr != nil {
			fx.surrogate = &tracedModel{Model: surr, tr: tr, fwd: spanSurrFwd, bwd: spanSurrBwd}
		}
		fx.parts.Surrogate = wallNow().Sub(t0)
	}

	t0 = wallNow()
	for _, v := range sys.Corpus.Train {
		fx.gallery = append(fx.gallery, row{ID: v.ID, Label: v.Label, Feat: models.Embed(fx.raw, v)})
	}
	if w.fleet {
		fx.gallery = append(fx.gallery, fillerRows(rand.New(rand.NewSource(subSeed(seed, 29))), fx.gallery, z.FleetRows-len(fx.gallery))...)
		if fx.fleet, err = startFleet(fx, w.admission, tr); err != nil {
			sys.Close()
			return nil, fmt.Errorf("set up fleet: %w", err)
		}
	} else {
		fx.engine = retrieval.NewEngine(fx.model, sys.Corpus.Train)
	}
	fx.parts.IndexBuild = wallNow().Sub(t0)
	return fx, nil
}

// fillerRows pads a gallery to fleet scale with rows that look like real
// embeddings: a convex mix of two random real rows plus N(0, 0.05²) noise.
func fillerRows(rng *rand.Rand, real []row, n int) []row {
	out := make([]row, 0, max(n, 0))
	for i := 0; i < n; i++ {
		a, b := real[rng.Intn(len(real))], real[rng.Intn(len(real))]
		mix := rng.Float64()
		feat := tensor.New(a.Feat.Len())
		fd, ad, bd := feat.Data(), a.Feat.Data(), b.Feat.Data()
		for j := range fd {
			fd[j] = mix*ad[j] + (1-mix)*bd[j] + 0.05*rng.NormFloat64()
		}
		out = append(out, row{ID: fmt.Sprintf("filler-%05d", i), Label: a.Label, Feat: feat})
	}
	return out
}

// startFleet deals the gallery round-robin onto the nodes, serves each shard
// on an ephemeral loopback port and dials it.
func startFleet(fx *fixture, adm retrieval.AdmissionConfig, tr *tracer) (*fleet, error) {
	z := fx.z
	f := &fleet{transports: make([]*tracedTransport, z.FleetNodes)}
	var nodes []retrieval.Transport
	fail := func(err error) (*fleet, error) {
		for _, n := range nodes {
			n.Close()
		}
		for _, s := range f.servers {
			s.Close()
		}
		return nil, err
	}
	for i := 0; i < z.FleetNodes; i++ {
		var ids []string
		var labels []int
		var feats []*tensor.Tensor
		for j := i; j < len(fx.gallery); j += z.FleetNodes {
			r := fx.gallery[j]
			ids, labels, feats = append(ids, r.ID), append(labels, r.Label), append(feats, r.Feat)
		}
		var index retrieval.GalleryIndex = retrieval.NewShardFromFeatures(ids, labels, feats)
		if tr != nil {
			index = &tracedIndex{GalleryIndex: index, tr: tr, node: i}
		}
		srv, err := retrieval.ServeNodeConfig("127.0.0.1:0", index, retrieval.NodeServerConfig{Admission: adm})
		if err != nil {
			return fail(err)
		}
		f.servers = append(f.servers, srv)
		tcp, err := retrieval.DialNodeConfig(srv.Addr(), retrieval.TCPConfig{Timeout: retrieval.DefaultCallTimeout, Conns: z.FleetConns})
		if err != nil {
			return fail(err)
		}
		var node retrieval.Transport = tcp
		if tr != nil {
			f.transports[i] = &tracedTransport{Transport: tcp, tr: tr, node: i}
			node = f.transports[i]
		}
		nodes = append(nodes, node)
	}
	f.cluster = retrieval.NewCluster(fx.model, nodes).SetPolicy(retrieval.RequireAll())
	return f, nil
}

// victim returns the retriever under test behind a tap. lat, when non-nil,
// receives the caller-side latency of every call (single caller only).
func (fx *fixture) victim(tr *tracer, lat *[]time.Duration) (retrieval.Retriever, *victimTap) {
	if fx.fleet != nil {
		tap := &victimTap{inner: fx.fleet.cluster, tr: tr, name: spanCluster, lat: lat}
		return fallibleTap{victimTap: tap, inner: fx.fleet.cluster}, tap
	}
	tap := &victimTap{inner: fx.engine, tr: tr, name: spanEngine, lat: lat}
	return tap, tap
}
