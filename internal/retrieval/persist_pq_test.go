package retrieval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// pqTestIndex builds a small trained index plus query features.
func pqTestIndex(t *testing.T) (*PQIndex, [][]float64) {
	t.Helper()
	ids, labels, feats := pqTestData(21, 50, 8)
	cfg := pqTestConfig()
	ix, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, qs := pqTestData(22, 6, 8)
	queries := make([][]float64, len(qs))
	for i, q := range qs {
		queries[i] = q.Data()
	}
	return ix, queries
}

// readPQ decodes data and requires a product-quantized index.
func readPQ(t *testing.T, data []byte) *PQIndex {
	t.Helper()
	ix, err := decodeIndex(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	pq, ok := ix.(*PQIndex)
	if !ok {
		t.Fatalf("decoded %T, want *PQIndex", ix)
	}
	return pq
}

// pqAssertSameAnswers requires two indexes to answer every query with
// bitwise-identical result lists.
func pqAssertSameAnswers(t *testing.T, a, b *PQIndex, queries [][]float64) {
	t.Helper()
	if a.Size() != b.Size() || a.Dim() != b.Dim() || a.RerankDepth() != b.RerankDepth() {
		t.Fatalf("shape differs: (%d,%d,%d) vs (%d,%d,%d)",
			a.Size(), a.Dim(), a.RerankDepth(), b.Size(), b.Dim(), b.RerankDepth())
	}
	for qi, q := range queries {
		ra, rb := a.Nearest(q, 7), b.Nearest(q, 7)
		for i := range ra {
			if ra[i].ID != rb[i].ID || ra[i].Label != rb[i].Label ||
				math.Float64bits(ra[i].Dist) != math.Float64bits(rb[i].Dist) {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, ra[i], rb[i])
			}
		}
	}
}

// TestPQIndexRoundTripReader pins the in-memory round trip: a
// written-then-decoded index must be answer-identical to the original and
// write back byte-identically.
func TestPQIndexRoundTripReader(t *testing.T) {
	ix, queries := pqTestIndex(t)
	file := encodeIndex(t, ix)
	loaded := readPQ(t, file)
	pqAssertSameAnswers(t, ix, loaded, queries)
	if !bytes.Equal(encodeIndex(t, loaded), file) {
		t.Error("a loaded index does not write back byte-identically")
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPQIndexRoundTripFile pins the mmap cold-start path (the platform's
// fast path where supported, plain read elsewhere): open, query, close,
// and double-close safety.
func TestPQIndexRoundTripFile(t *testing.T) {
	ix, queries := pqTestIndex(t)
	path := filepath.Join(t.TempDir(), "pq.duopq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := opened.(*PQIndex)
	if !ok {
		t.Fatalf("opened %T, want *PQIndex", opened)
	}
	pqAssertSameAnswers(t, ix, loaded, queries)
	if err := loaded.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := OpenIndexFile(filepath.Join(t.TempDir(), "absent.duopq")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestPQIndexRejectsDamage walks the failure-mode battery: every class of
// file damage must be rejected with its typed sentinel error, never loaded
// as garbage and never misclassified.
func TestPQIndexRejectsDamage(t *testing.T) {
	ix, _ := pqTestIndex(t)
	good := encodeIndex(t, ix)

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrIndexTruncated},
		{"short header", func(b []byte) []byte { return b[:indexHeaderSize-1] }, ErrIndexTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-9] }, ErrIndexTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrIndexMagic},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], indexVersion+1)
			return b
		}, ErrIndexVersion},
		{"payload bit flip", func(b []byte) []byte { b[indexHeaderSize+17] ^= 0x04; return b }, ErrIndexCorrupt},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xEE) }, ErrIndexCorrupt},
		{"header bit flip", func(b []byte) []byte { b[36] ^= 0x01; return b }, ErrIndexCorrupt},
		{"implausible header n=0", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 0)
			return sealIndex(b)
		}, ErrIndexCorrupt},
		{"header/payload length mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[40:], uint64(len(b)-indexHeaderSize+8))
			return sealIndex(b)
		}, ErrIndexCorrupt},
		{"code out of range", func(b []byte) []byte {
			b[indexHeaderSize+layoutOf(pqHeaderOf(ix)).sec[secCodes].off] = byte(ix.k)
			return sealIndex(b)
		}, ErrIndexCorrupt},
		{"non-zero padding", func(b []byte) []byte {
			l := layoutOf(pqHeaderOf(ix))
			s := l.sec[secIDBlob]
			if s.off+s.len == l.sec[secFeats].off {
				t.Fatal("fixture has no padding after the id blob")
			}
			b[indexHeaderSize+s.off+s.len] = 1
			return sealIndex(b)
		}, ErrIndexCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), good...))
			_, err := decodeIndex(mut, nil)
			if err == nil {
				t.Fatal("damaged index accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// The same damage must be typed identically through the file
			// opener (the retrievald load-or-rebuild path dispatches on it).
			path := filepath.Join(t.TempDir(), "damaged.duopq")
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenIndexFile(path); !errors.Is(err, tc.want) {
				t.Fatalf("OpenIndexFile err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestPQIndexRejectsBrokenIDTable corrupts the id offset table and repairs
// the checksum, proving the decoder validates structure beyond the CRC (a
// checksum matches whatever bytes were written, including a buggy
// writer's).
func TestPQIndexRejectsBrokenIDTable(t *testing.T) {
	ix, _ := pqTestIndex(t)
	data := encodeIndex(t, ix)
	h := pqHeaderOf(ix)
	l := layoutOf(h)
	// Break the prefix-sum invariant of entry 1, then re-checksum.
	binary.LittleEndian.PutUint32(data[indexHeaderSize+l.sec[secIDOffs].off+4:], uint32(h.idBlobLen+1))
	_, err := decodeIndex(sealIndex(data), nil)
	if !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("err = %v, want ErrIndexCorrupt", err)
	}
}

// pqHeaderOf is the header ix writes.
func pqHeaderOf(ix *PQIndex) indexHeader {
	h := indexHeader{n: ix.Size(), dim: ix.Dim(), nsub: ix.nsub, k: ix.k, rerank: ix.rerank}
	for _, id := range ix.g.ids {
		h.idBlobLen += len(id)
	}
	return h
}

// TestPQLayoutAligned pins the mmap precondition: every section offset the
// layout computes is 8-byte aligned, whatever the shape, so the float
// sections can alias a mapping on alignment-strict platforms.
func TestPQLayoutAligned(t *testing.T) {
	shapes := []struct{ n, dim, nsub, k, blob int }{
		{1, 1, 1, 1, 0},
		{3, 7, 3, 2, 11},
		{50, 8, 4, 8, 300},
		{1000, 64, 8, 256, 12345},
	}
	for _, s := range shapes {
		l := layoutOf(indexHeader{n: s.n, dim: s.dim, nsub: s.nsub, k: s.k, idBlobLen: s.blob})
		for _, sec := range l.sec {
			if sec.off%8 != 0 {
				t.Errorf("shape %+v: offset %d not 8-aligned (layout %+v)", s, sec.off, l)
			}
		}
		if l.end < l.sec[secFeats].off+s.n*s.dim*8 {
			t.Errorf("shape %+v: end %d too small", s, l.end)
		}
	}
}
