package retrieval

import (
	"encoding/gob"
	"fmt"
	"io"

	"duo/internal/models"
)

// indexRecord is the on-disk form of a gallery — identity metadata plus the
// rows as one n×dim row-major matrix — under the exported names (and the
// type name) gob has always written, so files from every earlier version
// load and new files are byte-identical. Feature extraction is the
// expensive part of ingest, so production nodes persist the index and
// reload it on restart.
type indexRecord struct {
	IDs    []string
	Labels []int
	Dim    int
	Feats  []float64
}

func (g *gallery) writeIndex(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(indexRecord{IDs: g.ids, Labels: g.labels, Dim: g.dim, Feats: g.flat()}); err != nil {
		return fmt.Errorf("retrieval: encode index: %w", err)
	}
	return nil
}

// readGallery decodes an index file; newGallery rejects an inconsistent
// one, so a corrupt file is an error, never a panic at query time.
func readGallery(r io.Reader) (gallery, error) {
	var rec indexRecord
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return gallery{}, fmt.Errorf("retrieval: decode index: %w", err)
	}
	return newGallery(rec.IDs, rec.Labels, rec.Dim, rec.Feats)
}

// WriteIndex persists the shard's feature index with encoding/gob.
func (s *Shard) WriteIndex(w io.Writer) error { return s.g.writeIndex(w) }

// ReadShard loads a shard index previously written with WriteIndex.
func ReadShard(r io.Reader) (*Shard, error) {
	g, err := readGallery(r)
	if err != nil {
		return nil, err
	}
	return &Shard{g: g}, nil
}

// WriteIndex persists the engine's index in the index's own format (features
// only — the extractor model is reconstructed separately, e.g. from its
// seed).
func (e *Engine) WriteIndex(w io.Writer) error { return e.idx.WriteIndex(w) }

// ReadEngine loads an exact engine index previously written with WriteIndex
// and attaches the query-side extractor m (which must be the model that
// built the index, or retrieval distances are meaningless).
func ReadEngine(r io.Reader, m models.Model) (*Engine, error) {
	s, err := ReadShard(r)
	if err != nil {
		return nil, err
	}
	return NewEngineFromIndex(m, s)
}
