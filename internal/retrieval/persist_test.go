package retrieval

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"duo/internal/models"
	"duo/internal/tensor"
)

// encodeIndex serializes an index into a byte slice.
func encodeIndex(t testing.TB, ix interface{ WriteIndex(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealIndex recomputes the header checksum of an index file in place, so a
// test can damage the structure behind a valid CRC.
func sealIndex(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[48:], headerCRC(data[:indexHeaderSize], data[indexHeaderSize:]))
	return data
}

// readShard decodes data and requires an exact index.
func readShard(t *testing.T, data []byte) *Shard {
	t.Helper()
	ix, err := decodeIndex(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := ix.(*Shard)
	if !ok {
		t.Fatalf("decoded %T, want *Shard", ix)
	}
	return s
}

// isIndexError reports whether err is one of the typed load failures.
func isIndexError(err error) bool {
	for _, e := range []error{ErrIndexMagic, ErrIndexVersion, ErrIndexTruncated, ErrIndexCorrupt} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

func TestEngineIndexRoundTrip(t *testing.T) {
	eng, c, m := testSystem(t)
	loaded, err := NewEngineFromIndex(m, readShard(t, encodeIndex(t, NewShard(m, c.Train))))
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
	loaded := readShard(t, encodeIndex(t, shard))
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
	// An empty shard is a valid file too.
	empty := readShard(t, encodeIndex(t, NewShardFromFeatures(nil, nil, nil)))
	if empty.Size() != 0 || empty.Dim() != 0 || len(empty.Nearest(nil, 3)) != 0 {
		t.Errorf("empty shard reloaded as size %d dim %d", empty.Size(), empty.Dim())
	}
}

// TestReadEngineDimMismatch: an engine over a read-back index refuses a
// query-side model of another dimension.
func TestReadEngineDimMismatch(t *testing.T) {
	_, c, m := testSystem(t)
	shard := readShard(t, encodeIndex(t, NewShard(m, c.Train[:4])))
	other := models.NewC3D(rand.New(rand.NewSource(1)),
		models.Geometry{Frames: 8, Channels: 3, Height: 12, Width: 12}, 8) // wrong dim
	if _, err := NewEngineFromIndex(other, shard); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestReadShardGarbage(t *testing.T) {
	for _, junk := range [][]byte{[]byte("junk"), bytes.Repeat([]byte("junk"), 20)} {
		if _, err := decodeIndex(junk, nil); !isIndexError(err) {
			t.Errorf("%d bytes of garbage: err = %v, want an ErrIndex* error", len(junk), err)
		}
	}
}

// TestGalleryShapeRejectedWhereDataEnters: the scan never re-checks a row,
// so every way data gets into a gallery must refuse an inconsistent one —
// an index file whose header disagrees with its sections is corrupt even
// behind a valid checksum, and a ragged in-process gallery is a caller bug
// that fails at construction, not at query time.
func TestGalleryShapeRejectedWhereDataEnters(t *testing.T) {
	row := func(vals ...float64) *tensor.Tensor { return tensor.From(vals, len(vals)) }
	good := encodeIndex(t, NewShardFromFeatures([]string{"a", "b"}, []int{0, 1}, []*tensor.Tensor{row(1, 2), row(3, 4)}))
	put32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	for name, mut := range map[string]func([]byte) []byte{
		"zero dim":        put32(24, 0),
		"overflowing dim": put32(24, 1<<31),
		"rows, no ids":    func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 0); return b },
		"id blob length":  put32(52, 3),
		"short feats": func(b []byte) []byte {
			b = b[:len(b)-8]
			binary.LittleEndian.PutUint64(b[40:], uint64(len(b)-indexHeaderSize))
			return b
		},
		"exact with k":      put32(32, 1),
		"non-zero flags":    put32(12, 1),
		"non-zero reserved": put32(60, 1),
	} {
		data := sealIndex(mut(append([]byte(nil), good...)))
		if _, err := decodeIndex(data, nil); !errors.Is(err, ErrIndexCorrupt) {
			t.Errorf("%s: err = %v, want ErrIndexCorrupt", name, err)
		}
	}

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

// hostileIndexFile is a checksummed 72-byte file whose header claims
// n = 0x7878787878787878 entries of dim = nsub = k = rerank = 1: a layout
// whose section sizes wrap around to exactly its 8-byte payload.
func hostileIndexFile() []byte {
	data := bytes.Repeat([]byte("x"), indexHeaderSize+8)
	copy(data, indexMagic)
	binary.LittleEndian.PutUint32(data[8:], indexVersion)
	for _, off := range []int{12, 52} { // flags, id-blob length
		binary.LittleEndian.PutUint32(data[off:], 0)
	}
	for _, off := range []int{24, 28, 32, 36} { // dim, nsub, k, rerank
		binary.LittleEndian.PutUint32(data[off:], 1)
	}
	binary.LittleEndian.PutUint64(data[40:], 8)
	binary.LittleEndian.PutUint64(data[56:], 0)
	return sealIndex(data)
}

// TestIndexFileHostileHeaderIsCorrupt: the decoder must bound the hostile
// header's sizes before forming them, not make a slice of n ids.
func TestIndexFileHostileHeaderIsCorrupt(t *testing.T) {
	if _, err := decodeIndex(hostileIndexFile(), nil); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("err = %v, want ErrIndexCorrupt", err)
	}
}

// TestIndexFileBitFlipsNeverChangeAnswers flips every bit of a small exact
// and a small PQ index file. A flip must either fail to load with a typed
// error or load an index that answers a fixed query set exactly as the
// original does: the checksum covers the header as well as the payload.
func TestIndexFileBitFlipsNeverChangeAnswers(t *testing.T) {
	ids, labels, rows, queries := pinnedIndexRows()
	exact := NewShardFromFeatures(ids[:3], labels[:3], rows[:3])
	pids, plabels, pfeats := pqTestData(31, 8, 4)
	pq, err := NewPQIndex(pids, plabels, pfeats, PQConfig{Subspaces: 2, Centroids: 2, Seed: 1, RerankDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]LoadedIndex{"exact": exact, "pq": pq} {
		good := encodeIndex(t, ix)
		loaded := 0
		for bit := 0; bit < 8*len(good); bit++ {
			data := append([]byte(nil), good...)
			data[bit/8] ^= 1 << (bit % 8)
			got, err := decodeIndex(data, nil)
			if err != nil {
				if !isIndexError(err) {
					t.Fatalf("%s bit %d: untyped error %v", name, bit, err)
				}
				continue
			}
			loaded++
			for qi, q := range queries {
				for _, m := range []int{1, 3, ix.Size() + 1} {
					if a, b := ix.Nearest(q, m), got.Nearest(q, m); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s bit %d loads and changes query %d at m=%d:\n got %v\nwant %v", name, bit, qi, m, b, a)
					}
				}
			}
		}
		t.Logf("%s: %d bytes, %d of %d single-bit flips loaded", name, len(good), loaded, 8*len(good))
	}
}

// TestIndexRecordRoundTrip pins the exact index record against answers
// recorded before the format changed: testdata/index_v1_top5.json is what
// Shard.Nearest answered over pinnedIndexRows when shards were still
// written as gob records. Written and read back in the current format,
// the shard and an engine over it must return the same lists, and the
// loaded shard must write back byte-identically.
func TestIndexRecordRoundTrip(t *testing.T) {
	ids, labels, rows, queries := pinnedIndexRows()
	file := encodeIndex(t, NewShardFromFeatures(ids, labels, rows))
	shard := readShard(t, file)
	if !bytes.Equal(encodeIndex(t, shard), file) {
		t.Error("a loaded index does not write back byte-identically")
	}
	eng, err := NewEngineFromIndex(identityModel{dim: shard.Dim()}, shard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/index_v1_top5.json")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := shard.Nearest(q, 5); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("shard query %d:\n got %v\nwant %v", i, got, want[i])
		}
		if got := eng.Retrieve(asVideos(q)[0], 5); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("engine query %d:\n got %v\nwant %v", i, got, want[i])
		}
	}
}

// pinnedIndexRows is the gallery behind testdata/index_v1_top5.json (every
// third row duplicates its predecessor, so the pinned lists contain
// ID-broken ties) plus the queries it answers. Changing it invalidates the
// file.
func pinnedIndexRows() (ids []string, labels []int, rows []*tensor.Tensor, queries [][]float64) {
	rng := rand.New(rand.NewSource(20260929))
	const n, dim = 12, 4
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		if i%3 == 2 {
			copy(row, rows[i-1].Data())
		} else {
			for d := range row {
				row[d] = rng.NormFloat64()
			}
		}
		ids = append(ids, fmt.Sprintf("pin-%02d", i))
		labels = append(labels, i%4)
		rows = append(rows, tensor.From(row, dim))
	}
	for q := 0; q < 3; q++ {
		query := make([]float64, dim)
		for d := range query {
			query[d] = rng.NormFloat64()
		}
		queries = append(queries, query)
	}
	return ids, labels, rows, queries
}

// TestOpenIndexFileKinds: one opener serves both kinds, returning the type
// the header names; a shard opened from a file closes like a PQ index.
func TestOpenIndexFileKinds(t *testing.T) {
	ids, labels, rows, queries := pinnedIndexRows()
	exact := NewShardFromFeatures(ids, labels, rows)
	path := filepath.Join(t.TempDir(), "shard.idx")
	if err := os.WriteFile(path, encodeIndex(t, exact), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shard, ok := ix.(*Shard)
	if !ok {
		t.Fatalf("opened %T, want *Shard", ix)
	}
	if got, want := shard.Nearest(queries[0], 5), exact.Nearest(queries[0], 5); !reflect.DeepEqual(got, want) {
		t.Errorf("opened shard answers %v, want %v", got, want)
	}
	for i := 0; i < 2; i++ {
		if err := shard.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if err := exact.Close(); err != nil || exact.Size() != len(ids) || exact.Nearest(queries[0], 1) == nil {
		t.Errorf("closing a built shard must be a no-op: err %v", err)
	}
}
