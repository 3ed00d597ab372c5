package retrieval

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"duo/internal/telemetry"
)

// On-disk format of a feature index, exact or product-quantized (DESIGN.md
// §14). Feature extraction is the expensive part of ingest, so data nodes
// persist their index and reload it on restart. The file is a fixed-width
// 64-byte header followed by 8-byte-aligned flat sections, all
// little-endian. The layout is mmap-friendly by construction: every
// numeric section can be used in place from a read-only mapping, and the
// large exact-feature matrix sits at the tail so a cold node only faults
// in the pages its scans actually touch.
//
//	offset  size  field
//	     0     8  magic "DUOPQIDX"
//	     8     4  version (uint32, currently 2)
//	    12     4  flags (must be 0)
//	    16     8  n — indexed entries (uint64)
//	    24     4  dim — feature dimension
//	    28     4  nsub — code subspaces (0 for an exact index)
//	    32     4  k — centroids per subspace (0 for an exact index)
//	    36     4  rerank — fixed exact re-rank depth (0 for an exact index)
//	    40     8  payload length in bytes (uint64)
//	    48     4  CRC-32 (IEEE) of header bytes 0–47 and 52–63, then the payload
//	    52     4  id-blob length in bytes
//	    56     8  reserved (must be 0)
//	    64     …  payload
//
// Payload sections, in order, each padded with zeros to an 8-byte
// boundary:
//
//	codebooks  k·dim float64 — subspace codebooks back to back
//	codes      n·nsub bytes  — the code matrix (ADC scan input)
//	labels     n int32
//	idoffs     (n+1) uint32  — byte offsets into idblob (prefix sums)
//	idblob     concatenated id strings
//	feats      n·dim float64 — exact features (scan and re-rank input)
//
// An exact index is the no-quantizer case: nsub = k = rerank = 0 and empty
// codebook and code sections; n = dim = 0 is an empty shard. Every byte of
// a file is a function of the index it holds, so a loaded index writes
// back byte-identically. Readers reject any other version with
// ErrIndexVersion rather than guessing.

const (
	indexMagic      = "DUOPQIDX"
	indexVersion    = 2
	indexHeaderSize = 64
)

// Typed load failures: callers (retrievald's load-or-rebuild path, the
// round-trip test battery) tell a damaged file from an I/O error via
// errors.Is.
var (
	// ErrIndexMagic means the file is not an index file at all.
	ErrIndexMagic = errors.New("retrieval: index: bad magic")
	// ErrIndexVersion means the file's layout version is not supported.
	ErrIndexVersion = errors.New("retrieval: index: unsupported version")
	// ErrIndexTruncated means the file ends before its declared payload.
	ErrIndexTruncated = errors.New("retrieval: index: truncated")
	// ErrIndexCorrupt means the file is structurally invalid or fails its
	// checksum.
	ErrIndexCorrupt = errors.New("retrieval: index: corrupt")
)

// Payload sections, in file order.
const (
	secCodebooks = iota
	secCodes
	secLabels
	secIDOffs
	secIDBlob
	secFeats
	numSections
)

// indexHeader holds the header's shape fields.
type indexHeader struct {
	n, dim, nsub, k, rerank, idBlobLen int
}

// section is one payload section: its offset and its unpadded length.
type section struct{ off, len int }

// indexLayout places every payload section, a pure function of the
// header shared by the encoder and the decoder so the two can never
// disagree. end is the payload length.
type indexLayout struct {
	sec [numSections]section
	end int
}

func align8(x int) int { return (x + 7) &^ 7 }

func layoutOf(h indexHeader) indexLayout {
	var l indexLayout
	lens := [numSections]int{
		secCodebooks: h.k * h.dim * 8,
		secCodes:     h.n * h.nsub,
		secLabels:    4 * h.n,
		secIDOffs:    4 * (h.n + 1),
		secIDBlob:    h.idBlobLen,
		secFeats:     h.n * h.dim * 8,
	}
	off := 0
	for i, n := range lens {
		l.sec[i] = section{off, n}
		off = align8(off + n)
	}
	l.end = l.sec[secFeats].off + lens[secFeats]
	return l
}

// bytes returns section i of payload.
func (l *indexLayout) bytes(payload []byte, i int) []byte {
	s := l.sec[i]
	return payload[s.off : s.off+s.len]
}

// headerCRC checksums every header byte except the CRC field, then the
// payload.
func headerCRC(hdr, payload []byte) uint32 {
	c := crc32.ChecksumIEEE(hdr[:48])
	c = crc32.Update(c, crc32.IEEETable, hdr[52:indexHeaderSize])
	return crc32.Update(c, crc32.IEEETable, payload)
}

// putFloatsLE encodes vals into dst as little-endian float64 bit patterns.
func putFloatsLE(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// floatSection returns the section bytes as []float64, aliasing them in
// place when the platform allows (little-endian, 8-byte aligned) and
// decoding a copy otherwise. Either way the values are identical.
func floatSection(sec []byte) []float64 {
	if fs, ok := alignedFloats(sec); ok {
		return fs
	}
	out := make([]float64, len(sec)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[i*8:]))
	}
	return out
}

// writeIndex is the one encoder: the gallery plus, for a product-quantized
// index, its quantizer (nsub = k = rerank = 0 and nil codebooks and codes
// for an exact one). The payload is assembled in memory to checksum it;
// index files are dominated by the feature matrix, which the caller
// already holds.
func writeIndex(w io.Writer, g *gallery, nsub, k, rerank int, codebooks []float64, codes []byte) error {
	h := indexHeader{n: g.size(), dim: g.dim, nsub: nsub, k: k, rerank: rerank}
	for _, id := range g.ids {
		h.idBlobLen += len(id)
	}
	l := layoutOf(h)
	payload := make([]byte, l.end)

	putFloatsLE(l.bytes(payload, secCodebooks), codebooks)
	copy(l.bytes(payload, secCodes), codes)
	labels := l.bytes(payload, secLabels)
	for i, lab := range g.labels {
		if lab != int(int32(lab)) {
			return fmt.Errorf("retrieval: index: label %d of entry %d does not fit int32", lab, i)
		}
		binary.LittleEndian.PutUint32(labels[4*i:], uint32(int32(lab)))
	}
	idOffs, blob := l.bytes(payload, secIDOffs), l.bytes(payload, secIDBlob)
	off := 0
	for i, id := range g.ids {
		binary.LittleEndian.PutUint32(idOffs[4*i:], uint32(off))
		off += copy(blob[off:], id)
	}
	binary.LittleEndian.PutUint32(idOffs[4*h.n:], uint32(off))
	feats := l.bytes(payload, secFeats)
	for i, row := range g.rows {
		putFloatsLE(feats[i*g.dim*8:], row)
	}

	var hdr [indexHeaderSize]byte
	copy(hdr[0:8], indexMagic)
	binary.LittleEndian.PutUint32(hdr[8:], indexVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(h.n))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(h.dim))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(nsub))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(k))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(rerank))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[52:], uint32(h.idBlobLen))
	binary.LittleEndian.PutUint32(hdr[48:], headerCRC(hdr[:], payload))

	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("retrieval: index: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("retrieval: index: write payload: %w", err)
	}
	return nil
}

// WriteIndex persists the shard in the index file format.
func (s *Shard) WriteIndex(w io.Writer) error {
	return writeIndex(w, &s.g, 0, 0, 0, nil, nil)
}

// WriteIndex persists the index in the index file format.
func (ix *PQIndex) WriteIndex(w io.Writer) error {
	return writeIndex(w, &ix.g, ix.nsub, ix.k, ix.rerank, ix.codebooks, ix.codes)
}

// LoadedIndex is an index of either kind as OpenIndexFile returns it: a
// *Shard or a *PQIndex. Close releases the file mapping behind it.
type LoadedIndex interface {
	GalleryIndex
	WriteIndex(w io.Writer) error
	SetTelemetry(r *telemetry.Registry)
	Close() error
}

// parseHeader reads and bounds the shape fields. Every size is checked
// against the declared payload length by division before any product is
// formed, so a hostile header cannot overflow the layout arithmetic.
func parseHeader(hdr []byte) (indexHeader, int, error) {
	u32 := func(off int) uint64 { return uint64(binary.LittleEndian.Uint32(hdr[off:])) }
	n := binary.LittleEndian.Uint64(hdr[16:])
	dim, nsub, k, rerank, blob := u32(24), u32(28), u32(32), u32(36), u32(52)
	payload := binary.LittleEndian.Uint64(hdr[40:])

	bad := func(why string) (indexHeader, int, error) {
		return indexHeader{}, 0, fmt.Errorf("%w: %s (n=%d dim=%d nsub=%d k=%d rerank=%d payload=%d)",
			ErrIndexCorrupt, why, n, dim, nsub, k, rerank, payload)
	}
	switch {
	case u32(12) != 0 || binary.LittleEndian.Uint64(hdr[56:]) != 0:
		return bad("non-zero flags or reserved bytes")
	case payload > math.MaxInt/8:
		return bad("payload length out of range")
	// An entry takes at least a label and an id offset: 8 bytes.
	case n > payload/8, n > 0 && (dim > payload/8/n || nsub > payload/n), blob > payload:
		return bad("sizes exceed the payload")
	case nsub == 0 && (k != 0 || rerank != 0 || (n == 0) != (dim == 0)):
		return bad("implausible exact header")
	case nsub != 0 && (n < 1 || dim < 1 || nsub > dim || k < 1 || k > 256 || k > n || rerank < 1 || k*dim*8 > payload):
		return bad("implausible pq header")
	}
	h := indexHeader{n: int(n), dim: int(dim), nsub: int(nsub), k: int(k), rerank: int(rerank), idBlobLen: int(blob)}
	return h, int(payload), nil
}

// decodeIndex is the one decoder: it validates data as an index file and
// materializes a *Shard (nsub = 0) or a *PQIndex. Numeric sections alias
// data where the platform allows, so when data is a read-only file mapping
// the index serves queries straight from the page cache; closer (may be
// nil) is retained for the index's Close. Every failure is one of the
// ErrIndex* errors.
func decodeIndex(data []byte, closer func() error) (LoadedIndex, error) {
	if len(data) < indexHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte file, want ≥ %d-byte header", ErrIndexTruncated, len(data), indexHeaderSize)
	}
	hdr, payload := data[:indexHeaderSize], data[indexHeaderSize:]
	if string(hdr[0:8]) != indexMagic {
		return nil, fmt.Errorf("%w: %q", ErrIndexMagic, string(hdr[0:8]))
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != indexVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrIndexVersion, v, indexVersion)
	}
	h, payloadLen, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	l := layoutOf(h)
	switch {
	case l.end != payloadLen:
		return nil, fmt.Errorf("%w: declared payload %d bytes, layout needs %d", ErrIndexCorrupt, payloadLen, l.end)
	case len(payload) < payloadLen:
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrIndexTruncated, len(data), indexHeaderSize+payloadLen)
	case len(payload) > payloadLen:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrIndexCorrupt, len(payload)-payloadLen)
	}
	if got, want := headerCRC(hdr, payload), binary.LittleEndian.Uint32(hdr[48:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, header says %08x", ErrIndexCorrupt, got, want)
	}
	for i := 0; i < numSections-1; i++ {
		for _, b := range payload[l.sec[i].off+l.sec[i].len : l.sec[i+1].off] {
			if b != 0 {
				return nil, fmt.Errorf("%w: non-zero padding after section %d", ErrIndexCorrupt, i)
			}
		}
	}

	idOffs, blob := l.bytes(payload, secIDOffs), l.bytes(payload, secIDBlob)
	idOff := func(i int) int { return int(binary.LittleEndian.Uint32(idOffs[4*i:])) }
	if idOff(0) != 0 || idOff(h.n) != h.idBlobLen {
		return nil, fmt.Errorf("%w: id table does not span the %d-byte id blob", ErrIndexCorrupt, h.idBlobLen)
	}
	ids := make([]string, h.n)
	for i := range ids {
		lo, hi := idOff(i), idOff(i+1)
		if hi < lo || hi > h.idBlobLen {
			return nil, fmt.Errorf("%w: id table entry %d out of order", ErrIndexCorrupt, i)
		}
		ids[i] = string(blob[lo:hi])
	}
	labels := make([]int, h.n)
	labelBytes := l.bytes(payload, secLabels)
	for i := range labels {
		labels[i] = int(int32(binary.LittleEndian.Uint32(labelBytes[4*i:])))
	}
	g, err := newGallery(ids, labels, h.dim, floatSection(l.bytes(payload, secFeats)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
	}
	g.closer = closer
	if h.nsub == 0 {
		return &Shard{g: g}, nil
	}
	codes := l.bytes(payload, secCodes)
	for i, c := range codes {
		if int(c) >= h.k {
			return nil, fmt.Errorf("%w: code %d of row %d ≥ k = %d", ErrIndexCorrupt, c, i/h.nsub, h.k)
		}
	}
	return &PQIndex{
		g:         g,
		nsub:      h.nsub,
		k:         h.k,
		rerank:    h.rerank,
		cbOff:     pqCodebookOffsets(h.dim, h.nsub, h.k),
		codebooks: floatSection(l.bytes(payload, secCodebooks)),
		codes:     codes,
	}, nil
}

// OpenIndexFile opens a persisted index read-only, memory-mapping it where
// the platform supports it (falling back to a plain read elsewhere), and
// returns a *Shard or a *PQIndex as the file's header says. This is the
// node cold-start path: validation touches the file once, and afterwards
// queries serve from the mapping with no per-entry deserialization. Close
// the index to release the mapping. A damaged or foreign file fails with
// one of the ErrIndex* errors; a file that cannot be read fails with the
// underlying I/O error.
func OpenIndexFile(path string) (LoadedIndex, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := decodeIndex(data, closer)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}
