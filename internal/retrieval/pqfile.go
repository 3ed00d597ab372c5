package retrieval

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// On-disk format of a product-quantized index (DESIGN.md §14): a
// fixed-width 64-byte header followed by 8-byte-aligned flat sections, all
// little-endian. The layout is mmap-friendly by construction — every
// numeric section can be used in place from a read-only mapping, and the
// large exact-feature matrix sits at the tail so a cold node only faults
// in the pages its re-ranks actually touch.
//
//	offset  size  field
//	     0     8  magic "DUOPQIDX"
//	     8     4  version (uint32, currently 1)
//	    12     4  flags (reserved, 0)
//	    16     8  n — indexed entries (uint64)
//	    24     4  dim — feature dimension
//	    28     4  nsub — code subspaces
//	    32     4  k — centroids per subspace
//	    36     4  rerank — fixed exact re-rank depth
//	    40     8  payload length in bytes (uint64)
//	    48     4  CRC-32 (IEEE) of the payload
//	    52     4  id-blob length in bytes
//	    56     8  reserved (0)
//	    64     …  payload
//
// Payload sections, in order, each padded to an 8-byte boundary:
//
//	codebooks  k·dim float64 — subspace codebooks back to back
//	codes      n·nsub bytes  — the code matrix (ADC scan input)
//	labels     n int32
//	idoffs     (n+1) uint32  — byte offsets into idblob (prefix sums)
//	idblob     concatenated id strings
//	feats      n·dim float64 — exact features (re-rank input)
//
// Version changes that alter the layout bump the version field; readers
// reject other versions with ErrIndexVersion rather than guessing.

const (
	pqMagic      = "DUOPQIDX"
	pqVersion    = 1
	pqHeaderSize = 64
)

// Typed load failures: callers (retrievald's load-or-rebuild path, the
// round-trip test battery) distinguish a missing feature from a damaged
// file via errors.Is.
var (
	// ErrIndexMagic means the file is not a PQ index at all.
	ErrIndexMagic = errors.New("retrieval: pq index: bad magic")
	// ErrIndexVersion means the file's layout version is not supported.
	ErrIndexVersion = errors.New("retrieval: pq index: unsupported version")
	// ErrIndexTruncated means the file ends before its declared payload.
	ErrIndexTruncated = errors.New("retrieval: pq index: truncated")
	// ErrIndexCorrupt means the file is structurally invalid or fails its
	// checksum.
	ErrIndexCorrupt = errors.New("retrieval: pq index: corrupt")
)

// pqLayout holds the byte offsets of every payload section, a pure
// function of the header fields (shared by the encoder and the decoder so
// the two can never disagree).
type pqLayout struct {
	cbOff     int
	codesOff  int
	labelsOff int
	idOffOff  int
	idBlobOff int
	featsOff  int
	end       int
}

func pqAlign8(x int) int { return (x + 7) &^ 7 }

func pqLayoutOf(n, dim, nsub, k, idBlobLen int) pqLayout {
	var l pqLayout
	off := 0
	l.cbOff = off
	off = pqAlign8(off + k*dim*8)
	l.codesOff = off
	off = pqAlign8(off + n*nsub)
	l.labelsOff = off
	off = pqAlign8(off + 4*n)
	l.idOffOff = off
	off = pqAlign8(off + 4*(n+1))
	l.idBlobOff = off
	off = pqAlign8(off + idBlobLen)
	l.featsOff = off
	l.end = off + n*dim*8
	return l
}

// putFloatsLE encodes vals into dst as little-endian float64 bit patterns.
func putFloatsLE(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// getFloatsLE decodes a little-endian float64 section into a fresh slice
// (the portable path; little-endian hosts alias the bytes instead).
func getFloatsLE(src []byte) []float64 {
	out := make([]float64, len(src)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out
}

// floatSection returns the section bytes as []float64, aliasing them
// in place when the platform allows (little-endian, 8-byte aligned) and
// copying otherwise. Either way the values are identical.
func floatSection(sec []byte) []float64 {
	if fs, ok := pqAlignedFloats(sec); ok {
		return fs
	}
	return getFloatsLE(sec)
}

// WriteIndex persists the index in the versioned flat layout. The entire
// payload is assembled in memory to checksum it; index files are dominated
// by the feature matrix, which the caller already holds.
func (ix *PQIndex) WriteIndex(w io.Writer) error {
	g := &ix.g
	n := g.size()
	idBlobLen := 0
	for _, id := range g.ids {
		idBlobLen += len(id)
	}
	l := pqLayoutOf(n, g.dim, ix.nsub, ix.k, idBlobLen)
	payload := make([]byte, l.end)

	putFloatsLE(payload[l.cbOff:], ix.codebooks)
	copy(payload[l.codesOff:], ix.codes)
	for i, lab := range g.labels {
		binary.LittleEndian.PutUint32(payload[l.labelsOff+4*i:], uint32(int32(lab)))
	}
	off := 0
	for i, id := range g.ids {
		binary.LittleEndian.PutUint32(payload[l.idOffOff+4*i:], uint32(off))
		copy(payload[l.idBlobOff+off:], id)
		off += len(id)
	}
	binary.LittleEndian.PutUint32(payload[l.idOffOff+4*n:], uint32(off))
	for i, row := range g.rows {
		putFloatsLE(payload[l.featsOff+i*g.dim*8:], row)
	}

	var hdr [pqHeaderSize]byte
	copy(hdr[0:8], pqMagic)
	binary.LittleEndian.PutUint32(hdr[8:], pqVersion)
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(g.dim))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(ix.nsub))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(ix.k))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(ix.rerank))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[48:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[52:], uint32(idBlobLen))

	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("retrieval: pq index: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("retrieval: pq index: write payload: %w", err)
	}
	return nil
}

// decodePQIndex validates data as a serialized PQ index and materializes
// it. Numeric sections alias data where the platform allows, so when data
// is a read-only file mapping the index serves queries straight from the
// page cache; closer (may be nil) is retained for PQIndex.Close.
func decodePQIndex(data []byte, closer func() error) (*PQIndex, error) {
	if len(data) < pqHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte file, want ≥ %d-byte header", ErrIndexTruncated, len(data), pqHeaderSize)
	}
	if string(data[0:8]) != pqMagic {
		return nil, fmt.Errorf("%w: %q", ErrIndexMagic, string(data[0:8]))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != pqVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrIndexVersion, v, pqVersion)
	}
	n := int(binary.LittleEndian.Uint64(data[16:]))
	dim := int(binary.LittleEndian.Uint32(data[24:]))
	nsub := int(binary.LittleEndian.Uint32(data[28:]))
	k := int(binary.LittleEndian.Uint32(data[32:]))
	rerank := int(binary.LittleEndian.Uint32(data[36:]))
	payloadLen := int(binary.LittleEndian.Uint64(data[40:]))
	crc := binary.LittleEndian.Uint32(data[48:])
	idBlobLen := int(binary.LittleEndian.Uint32(data[52:]))

	if n < 1 || dim < 1 || nsub < 1 || nsub > dim || k < 1 || k > 256 || k > n || rerank < 1 || idBlobLen < 0 {
		return nil, fmt.Errorf("%w: implausible header (n=%d dim=%d nsub=%d k=%d rerank=%d)", ErrIndexCorrupt, n, dim, nsub, k, rerank)
	}
	l := pqLayoutOf(n, dim, nsub, k, idBlobLen)
	if l.end != payloadLen {
		return nil, fmt.Errorf("%w: declared payload %d bytes, layout needs %d", ErrIndexCorrupt, payloadLen, l.end)
	}
	if len(data) < pqHeaderSize+payloadLen {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrIndexTruncated, len(data), pqHeaderSize+payloadLen)
	}
	if len(data) > pqHeaderSize+payloadLen {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrIndexCorrupt, len(data)-pqHeaderSize-payloadLen)
	}
	payload := data[pqHeaderSize:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("%w: checksum %08x, header says %08x", ErrIndexCorrupt, got, crc)
	}

	ids := make([]string, n)
	blob := payload[l.idBlobOff : l.idBlobOff+idBlobLen]
	prev := 0
	for i := 0; i < n; i++ {
		lo := int(binary.LittleEndian.Uint32(payload[l.idOffOff+4*i:]))
		hi := int(binary.LittleEndian.Uint32(payload[l.idOffOff+4*(i+1):]))
		if lo != prev || hi < lo || hi > idBlobLen {
			return nil, fmt.Errorf("%w: id table entry %d out of order", ErrIndexCorrupt, i)
		}
		ids[i] = string(blob[lo:hi])
		prev = hi
	}
	if prev != idBlobLen {
		return nil, fmt.Errorf("%w: id blob has %d unclaimed bytes", ErrIndexCorrupt, idBlobLen-prev)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = int(int32(binary.LittleEndian.Uint32(payload[l.labelsOff+4*i:])))
	}

	g, err := newGallery(ids, labels, dim, floatSection(payload[l.featsOff:l.featsOff+n*dim*8]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
	}
	return &PQIndex{
		g:         g,
		nsub:      nsub,
		k:         k,
		rerank:    rerank,
		cbOff:     pqCodebookOffsets(dim, nsub, k),
		codebooks: floatSection(payload[l.cbOff : l.cbOff+k*dim*8]),
		codes:     payload[l.codesOff : l.codesOff+n*nsub],
		closer:    closer,
	}, nil
}

// ReadPQIndex loads an index previously written with WriteIndex from an
// arbitrary reader (the portable, copy-decoding path).
func ReadPQIndex(r io.Reader) (*PQIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("retrieval: pq index: read: %w", err)
	}
	return decodePQIndex(data, nil)
}

// OpenPQIndexFile opens a persisted index read-only, memory-mapping it
// where the platform supports it (falling back to a plain read elsewhere).
// This is the node cold-start path: validation touches the file once, and
// afterwards queries serve from the mapping with no per-entry
// deserialization. Close the index to release the mapping.
func OpenPQIndexFile(path string) (*PQIndex, error) {
	data, closer, err := pqMapFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := decodePQIndex(data, closer)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}
