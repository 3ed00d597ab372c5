package retrieval

import (
	"bytes"
	"testing"

	"duo/internal/tensor"
)

// FuzzReadShard hardens the one index decoder, exact and product-quantized
// files alike: any input must either fail with one of the ErrIndex* errors
// or load an index that answers without panicking, returns at most Size()
// results, and writes back byte-identically. Each input is decoded as is
// and, when it is long enough to have a header, again with its checksum
// repaired, so mutations reach the structural checks behind the CRC.
func FuzzReadShard(f *testing.F) {
	shard := NewShardFromFeatures([]string{"a", "b"}, []int{0, 1},
		[]*tensor.Tensor{tensor.From([]float64{1, 2}, 2), tensor.From([]float64{3, 4}, 2)})
	ids, labels, feats := pqTestData(41, 6, 4)
	pq, err := NewPQIndex(ids, labels, feats, PQConfig{Subspaces: 2, Centroids: 3, Seed: 1, RerankDepth: 2})
	if err != nil {
		f.Fatal(err)
	}
	exact, quantized := encodeIndex(f, shard), encodeIndex(f, pq)
	f.Add(exact)
	f.Add(quantized)
	f.Add(hostileIndexFile())
	f.Add(encodeIndex(f, NewShardFromFeatures(nil, nil, nil)))
	f.Add(quantized[:len(quantized)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= indexHeaderSize {
			inputs = append(inputs, sealIndex(append([]byte(nil), data...)))
		}
		for _, in := range inputs {
			ix, err := decodeIndex(in, nil)
			if err != nil {
				if !isIndexError(err) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			if rs := ix.Nearest(make([]float64, ix.Dim()), ix.Size()+5); len(rs) > ix.Size() {
				t.Fatalf("returned %d results from %d entries", len(rs), ix.Size())
			}
			var out bytes.Buffer
			if err := ix.WriteIndex(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatal("loaded index does not write back byte-identically")
			}
		}
	})
}
