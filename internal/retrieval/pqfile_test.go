package retrieval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// TestPQIndexRoundTripReader pins the portable (copy-decoding) round trip:
// a written-then-read index must be answer-identical to the original.
func TestPQIndexRoundTripReader(t *testing.T) {
	ix, queries := pqTestIndex(t)
	var buf bytes.Buffer
	if err := ix.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPQIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pqAssertSameAnswers(t, ix, loaded, queries)
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
	loaded, err := OpenPQIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pqAssertSameAnswers(t, ix, loaded, queries)
	if err := loaded.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := OpenPQIndexFile(filepath.Join(t.TempDir(), "absent.duopq")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// pqEncode serializes ix into a byte slice.
func pqEncode(t *testing.T, ix *PQIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPQIndexRejectsDamage walks the failure-mode battery: every class of
// file damage must be rejected with its typed sentinel error, never loaded
// as garbage and never misclassified.
func TestPQIndexRejectsDamage(t *testing.T) {
	ix, _ := pqTestIndex(t)
	good := pqEncode(t, ix)

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrIndexTruncated},
		{"short header", func(b []byte) []byte { return b[:pqHeaderSize-1] }, ErrIndexTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-9] }, ErrIndexTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrIndexMagic},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], pqVersion+1)
			return b
		}, ErrIndexVersion},
		{"payload bit flip", func(b []byte) []byte { b[pqHeaderSize+17] ^= 0x04; return b }, ErrIndexCorrupt},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xEE) }, ErrIndexCorrupt},
		{"implausible header n=0", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 0)
			return b
		}, ErrIndexCorrupt},
		{"header/payload length mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[40:], uint64(len(b)-pqHeaderSize+8))
			return b
		}, ErrIndexCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), good...))
			_, err := ReadPQIndex(bytes.NewReader(mut))
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
			if _, err := OpenPQIndexFile(path); !errors.Is(err, tc.want) {
				t.Fatalf("OpenPQIndexFile err = %v, want %v", err, tc.want)
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
	data := pqEncode(t, ix)
	n := len(ix.g.ids)
	idBlobLen := 0
	for _, id := range ix.g.ids {
		idBlobLen += len(id)
	}
	l := pqLayoutOf(n, ix.g.dim, ix.nsub, ix.k, idBlobLen)
	// Break the prefix-sum invariant of entry 1, then re-checksum.
	binary.LittleEndian.PutUint32(data[pqHeaderSize+l.idOffOff+4:], uint32(idBlobLen+1))
	binary.LittleEndian.PutUint32(data[48:], crc32.ChecksumIEEE(data[pqHeaderSize:]))
	_, err := ReadPQIndex(bytes.NewReader(data))
	if !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("err = %v, want ErrIndexCorrupt", err)
	}
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
		l := pqLayoutOf(s.n, s.dim, s.nsub, s.k, s.blob)
		for _, off := range []int{l.cbOff, l.codesOff, l.labelsOff, l.idOffOff, l.idBlobOff, l.featsOff} {
			if off%8 != 0 {
				t.Errorf("shape %+v: offset %d not 8-aligned (layout %+v)", s, off, l)
			}
		}
		if l.end < l.featsOff+s.n*s.dim*8 {
			t.Errorf("shape %+v: end %d too small", s, l.end)
		}
	}
}
