package retrieval

import (
	"bytes"
	"testing"

	"duo/internal/tensor"
)

// FuzzReadShard hardens the index decoder: corrupted bytes must yield an
// error or a consistent shard, never a panic or an inconsistent index.
func FuzzReadShard(f *testing.F) {
	shard := NewShardFromFeatures([]string{"a", "b"}, []int{0, 1},
		[]*tensor.Tensor{tensor.From([]float64{1, 2}, 2), tensor.From([]float64{3, 4}, 2)})
	var buf bytes.Buffer
	if err := shard.WriteIndex(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	if len(valid) > 8 {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0x5a
		f.Add(flipped)
		f.Add(valid[:len(valid)-3])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadShard(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A decoded shard must answer queries without panicking and with
		// a result count bounded by its size.
		if got.Size() == 0 {
			return
		}
		rs := got.Nearest(make([]float64, got.Dim()), got.Size()+5)
		if len(rs) > got.Size() {
			t.Fatalf("returned %d results from %d entries", len(rs), got.Size())
		}
	})
}
