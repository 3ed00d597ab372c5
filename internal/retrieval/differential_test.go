package retrieval

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"duo/internal/models"
	"duo/internal/nn"
	"duo/internal/parallel"
	"duo/internal/tensor"
	"duo/internal/video"
)

// nearest is the obviously-correct reference every index tier is diffed
// against: score every row with tensor.Distance, sort everything under
// (Dist, ID), truncate. It shares no code with the scan kernel — in
// particular it goes through the tensor package, so it also pins l2sq as
// the bitwise mirror of tensor.SquaredDistance.
func nearest(query *tensor.Tensor, ids []string, labels []int, rows []*tensor.Tensor, m int) []Result {
	res := make([]Result, len(ids))
	for i := range ids {
		res[i] = Result{ID: ids[i], Label: labels[i], Dist: query.Distance(rows[i])}
	}
	sort.Slice(res, func(a, b int) bool { return resultLess(res[a], res[b]) })
	if m > len(res) {
		m = len(res)
	}
	if m < 0 {
		m = 0
	}
	return res[:m]
}

// scanRows runs the one scan kernel over raw rows with w workers; a nil
// scratch means a fresh one.
func scanRows(query *tensor.Tensor, ids []string, labels []int, rows []*tensor.Tensor, m, w int, sc *galleryScratch) []Result {
	g := mustGallery(galleryFromRows(ids, labels, rows))
	if sc == nil {
		sc = new(galleryScratch)
	}
	return g.topM(nil, query.Data(), m, w, sc)
}

// identityModel embeds a video as its own pixels, so a test controls the
// gallery's feature rows exactly (duplicates included).
type identityModel struct{ dim int }

func (identityModel) Name() string      { return "identity" }
func (m identityModel) FeatureDim() int { return m.dim }
func (identityModel) Forward(x *tensor.Tensor) (*tensor.Tensor, nn.Cache) {
	return tensor.From(x.Data(), x.Len()), nil
}
func (identityModel) Backward(nn.Cache, *tensor.Tensor) *tensor.Tensor { return nil }
func (identityModel) Params() []*nn.Param                              { return nil }

// TestAllTiersMatchReference drives every surviving index tier over
// randomized galleries with duplicated rows — so distance ties are broken
// by ID on every list — and requires each to return exactly the reference
// list, for m at and past both ends of the valid range.
func TestAllTiersMatchReference(t *testing.T) {
	const dim = 6
	model := identityModel{dim: dim}
	rng := rand.New(rand.NewSource(77))
	for trial, n := range []int{1, 4, 13, 40} {
		var (
			ids     []string
			labels  []int
			rows    []*tensor.Tensor
			gallery []*video.Video
		)
		for i := 0; i < n; i++ {
			row := tensor.RandNormal(rng, 0, 1, dim)
			if i > 0 && rng.Intn(3) == 0 {
				row = rows[rng.Intn(i)].Clone() // exact duplicate: a guaranteed tie
			}
			ids = append(ids, fmt.Sprintf("t%d-%03d", trial, i))
			labels = append(labels, rng.Intn(4))
			rows = append(rows, row)
			gallery = append(gallery, video.FromTensor(tensor.From(row.Data(), 1, 1, 1, dim), labels[i], ids[i]))
		}
		// Shuffle ingest order so ID order and row order disagree.
		rng.Shuffle(n, func(a, b int) {
			ids[a], ids[b] = ids[b], ids[a]
			labels[a], labels[b] = labels[b], labels[a]
			rows[a], rows[b] = rows[b], rows[a]
			gallery[a], gallery[b] = gallery[b], gallery[a]
		})

		eng := NewEngine(model, gallery)
		shard := NewShard(model, gallery)
		var file bytes.Buffer
		if err := shard.WriteIndex(&file); err != nil {
			t.Fatal(err)
		}
		reloaded, err := decodeIndex(file.Bytes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := NewPQIndex(ids, labels, rows, PQConfig{Subspaces: 2, Centroids: min(4, n), Seed: 3, RerankDepth: n})
		if err != nil {
			t.Fatal(err)
		}
		local1 := NewLocalCluster(model, gallery, 1)
		local3 := NewLocalCluster(model, gallery, 3)
		tcp := loopbackCluster(t, model, gallery, 2)

		byVideo := map[string]func(*video.Video, int) []Result{
			"local-cluster/1": local1.Retrieve,
			"local-cluster/3": local3.Retrieve,
			"tcp-cluster/2":   tcp.Retrieve,
		}
		for _, w := range []int{1, 2, 7} {
			byVideo[fmt.Sprintf("engine/workers=%d", w)] = func(v *video.Video, m int) []Result {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				return eng.Retrieve(v, m)
			}
		}
		byFeat := map[string]func([]float64, int) []Result{
			"shard":           shard.Nearest,
			"reloaded-shard":  reloaded.Nearest,
			"pq/full-rerank":  pq.Nearest,
			"engine/batch[0]": func(f []float64, m int) []Result { return eng.RetrieveBatch(asVideos(f), m)[0] },
		}

		for q := 0; q < 4; q++ {
			query := tensor.RandNormal(rng, 0, 1, dim)
			if q%2 == 1 {
				query = rows[rng.Intn(n)].Clone() // a query sitting on a (possibly duplicated) row
			}
			qv := asVideos(query.Data())[0]
			for _, m := range []int{0, 1, n, n + 5, math.MaxInt} {
				want := nearest(query, ids, labels, rows, m)
				for name, tier := range byVideo {
					if got := tier(qv, m); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d m=%d %s diverged from the reference:\n got %v\nwant %v", n, m, name, got, want)
					}
				}
				for name, tier := range byFeat {
					if got := tier(query.Data(), m); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d m=%d %s diverged from the reference:\n got %v\nwant %v", n, m, name, got, want)
					}
				}
			}
		}
	}
}

// asVideos wraps one feature vector as the single-frame video identityModel
// embeds back to it.
func asVideos(feat []float64) []*video.Video {
	return []*video.Video{video.FromTensor(tensor.From(feat, 1, 1, 1, len(feat)), 0, "query")}
}

// loopbackCluster deals the gallery round-robin onto `nodes` shards, each
// served by a NodeServer on an ephemeral loopback port and dialed over
// TCP; everything is torn down with the test.
func loopbackCluster(t *testing.T, m models.Model, gallery []*video.Video, nodes int) *Cluster {
	t.Helper()
	parts := make([][]*video.Video, nodes)
	for i, v := range gallery {
		parts[i%nodes] = append(parts[i%nodes], v)
	}
	var transports []Transport
	for _, part := range parts {
		srv, err := ServeNode("127.0.0.1:0", NewShard(m, part))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		tr, err := DialNode(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
	}
	cl := NewCluster(m, transports).SetPolicy(RequireAll())
	t.Cleanup(func() { cl.Close() })
	return cl
}
