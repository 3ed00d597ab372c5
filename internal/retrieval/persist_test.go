package retrieval

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"duo/internal/models"
	"duo/internal/tensor"
)

func TestEngineIndexRoundTrip(t *testing.T) {
	eng, c, m := testSystem(t)
	var buf bytes.Buffer
	if err := eng.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEngine(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range c.Test[:3] {
		a := IDs(eng.Retrieve(q, 6))
		b := IDs(loaded.Retrieve(q, 6))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("reloaded engine differs at %d: %v vs %v", i, a, b)
			}
		}
	}
}

func TestShardIndexRoundTrip(t *testing.T) {
	_, c, m := testSystem(t)
	shard := NewShard(m, c.Train[:8])
	var buf bytes.Buffer
	if err := shard.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != shard.Size() {
		t.Fatalf("size %d vs %d", loaded.Size(), shard.Size())
	}
	feat := models.Embed(m, c.Test[0]).Data()
	a := shard.Nearest(feat, 4)
	b := loaded.Nearest(feat, 4)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("reloaded shard differs at %d", i)
		}
	}
}

func TestReadEngineDimMismatch(t *testing.T) {
	eng, _, _ := testSystem(t)
	var buf bytes.Buffer
	if err := eng.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	other := models.NewC3D(rand.New(rand.NewSource(1)),
		models.Geometry{Frames: 8, Channels: 3, Height: 12, Width: 12}, 8) // wrong dim
	if _, err := ReadEngine(&buf, other); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestReadShardGarbage(t *testing.T) {
	if _, err := ReadShard(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestGalleryShapeRejectedWhereDataEnters: the scan never re-checks a row,
// so every way data gets into a gallery must refuse an inconsistent one —
// a well-formed gob file with the wrong shape is an error, and a ragged
// in-process gallery is a caller bug that fails at construction, not at
// query time.
func TestGalleryShapeRejectedWhereDataEnters(t *testing.T) {
	bad := map[string]indexRecord{
		"ids/labels":      {IDs: []string{"a", "b"}, Labels: []int{0}, Dim: 1, Feats: []float64{1, 2}},
		"zero dim":        {IDs: []string{"a"}, Labels: []int{0}, Dim: 0},
		"negative dim":    {IDs: []string{"a"}, Labels: []int{0}, Dim: -2, Feats: []float64{1, 2}},
		"short feats":     {IDs: []string{"a", "b"}, Labels: []int{0, 1}, Dim: 2, Feats: []float64{1, 2, 3}},
		"overflowing dim": {IDs: []string{"a", "b"}, Labels: []int{0, 1}, Dim: 1 << 62},
		"rows, no ids":    {Dim: 2, Feats: []float64{1, 2}},
	}
	for name, rec := range bad {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadShard(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("ReadShard accepted %s", name)
		}
		if _, err := ReadEngine(bytes.NewReader(buf.Bytes()), identityModel{dim: rec.Dim}); err == nil {
			t.Errorf("ReadEngine accepted %s", name)
		}
	}

	row := func(vals ...float64) *tensor.Tensor { return tensor.From(vals, len(vals)) }
	for name, build := range map[string]func(){
		"ragged rows": func() { NewShardFromFeatures([]string{"a", "b"}, []int{0, 1}, []*tensor.Tensor{row(1, 2), row(3)}) },
		"short ids":   func() { NewShardFromFeatures([]string{"a"}, []int{0, 1}, []*tensor.Tensor{row(1), row(2)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardFromFeatures accepted %s", name)
				}
			}()
			build()
		}()
	}
}
