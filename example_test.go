package duo_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"duo"
	"duo/internal/attack"
	"duo/internal/core"
	"duo/internal/models"
	"duo/internal/retrieval"
)

// ExampleNewSystem builds a complete victim environment: synthetic corpus,
// trained extractor, indexed gallery.
func ExampleNewSystem() {
	sys, err := duo.NewSystem(duo.SystemOptions{
		Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Height: 12, Width: 12,
		FeatureDim: 16, TrainEpochs: 3, M: 8, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(sys.Corpus.Train) > 0)
	// Output: true
}

// ExampleSystem_Attack runs the full DUO pipeline: steal a surrogate over
// the black-box interface, then craft a targeted adversarial example.
func ExampleSystem_Attack() {
	sys, err := duo.NewSystem(duo.SystemOptions{
		Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Height: 12, Width: 12,
		FeatureDim: 16, TrainEpochs: 3, M: 8, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	surr, err := sys.StealSurrogate(duo.SurrogateOptions{MaxSamples: 16, Epochs: 3})
	if err != nil {
		log.Fatal(err)
	}
	pair := sys.SamplePairs(2, 1)[0]
	rep, err := sys.Attack(pair.Original, pair.Target, surr, duo.AttackOptions{Queries: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Spa > 0, rep.Queries <= 60)
	// Output: true true
}

// ExampleSystem_AttackUntargeted crafts an adversarial copy whose retrieval
// list no longer matches the original's (the §I copyright-evasion case).
func ExampleSystem_AttackUntargeted() {
	sys, err := duo.NewSystem(duo.SystemOptions{
		Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Height: 12, Width: 12,
		FeatureDim: 16, TrainEpochs: 3, M: 8, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	surr, err := sys.StealSurrogate(duo.SurrogateOptions{MaxSamples: 16, Epochs: 3})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.AttackUntargeted(sys.Corpus.Train[0], surr, duo.AttackOptions{Queries: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.APBefore == 100, rep.APAfter <= rep.APBefore)
	// Output: true true
}

// ExampleNewSystem_hash attacks a Hamming-space victim: the gallery is
// indexed as binary codes (the HashNet-style deployment of the paper's
// reference model [42]), and DUO runs unchanged, since it only sees the
// R^m(v) list.
func ExampleNewSystem_hash() {
	sys, err := duo.NewSystem(duo.SystemOptions{
		Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Height: 12, Width: 12,
		FeatureDim: 16, TrainEpochs: 3, M: 8, Seed: 61, Hash: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	integral := true
	for _, r := range sys.Retrieve(sys.Corpus.Test[0], sys.M) {
		integral = integral && r.Dist == math.Trunc(r.Dist)
	}
	surr, err := sys.StealSurrogate(duo.SurrogateOptions{MaxSamples: 16, Epochs: 3})
	if err != nil {
		log.Fatal(err)
	}
	pair := sys.SamplePairs(2, 1)[0]
	rep, err := sys.Attack(pair.Original, pair.Target, surr, duo.AttackOptions{Queries: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("integral Hamming distances:", integral)
	fmt.Println("within the query budget:", rep.Queries <= 60)
	// Output:
	// integral Hamming distances: true
	// within the query budget: true
}

// Example_distributed attacks Fig. 1's distributed deployment: the gallery
// is sharded over three TCP data nodes behind a scatter/gather cluster,
// each node dialled through retries inside a circuit breaker, and DUO
// queries the cluster exactly as it would a single node.
func Example_distributed() {
	sys, err := duo.NewSystem(duo.SystemOptions{
		Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Height: 12, Width: 12,
		FeatureDim: 16, TrainEpochs: 3, M: 8, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	var shards [3][]*duo.Video
	for i, v := range sys.Corpus.Train {
		shards[i%3] = append(shards[i%3], v)
	}
	var nodes []retrieval.Transport
	for i, vids := range shards {
		srv, err := retrieval.ServeNode("127.0.0.1:0", retrieval.NewShard(sys.VictimModel(), vids))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		tr, err := retrieval.DialNode(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, retrieval.NewBreakerTransport(
			retrieval.NewRetryTransport(tr, retrieval.RetryConfig{Seed: int64(i + 1)}),
			retrieval.BreakerConfig{},
		))
	}
	// RequireAll: a failing node fails the query instead of silently
	// truncating the top-m that the attack objective is computed from.
	cluster := retrieval.NewCluster(sys.VictimModel(), nodes).SetPolicy(retrieval.RequireAll())
	defer cluster.Close()

	q := sys.Corpus.Test[0]
	same := slices.Equal(cluster.Retrieve(q, sys.M), sys.Retrieve(q, sys.M))

	surr, err := sys.StealSurrogate(duo.SurrogateOptions{MaxSamples: 16, Epochs: 3})
	if err != nil {
		log.Fatal(err)
	}
	pair := sys.SamplePairs(2, 1)[0]
	cfg := core.DefaultConfig(models.GeometryOf(pair.Original))
	cfg.Query.MaxQueries = 60
	ctx := &attack.Context{Victim: cluster, M: sys.M, Rng: rand.New(rand.NewSource(31))}
	res, err := core.Run(ctx, surr, pair.Original, pair.Target, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var failures int64
	for _, h := range cluster.Health() {
		failures += h.Failures
	}
	fmt.Println("same top-m as one node:", same)
	fmt.Println("within the query budget:", res.Queries <= 60)
	fmt.Println("cluster served every billed query:", cluster.QueryCount() >= int64(res.Queries))
	fmt.Println("node failures:", failures)
	// Output:
	// same top-m as one node: true
	// within the query budget: true
	// cluster served every billed query: true
	// node failures: 0
}
