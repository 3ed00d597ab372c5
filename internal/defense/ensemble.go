package defense

import (
	"sort"

	"duo/internal/retrieval"
	"duo/internal/video"
)

// Ensemble is the defense the paper proposes in §V-D: a retrieval service
// backed by several independently trained backbones whose rankings are
// fused, so that an adversarial example crafted against any one feature
// space (or a surrogate of it) has to fool all of them at once.
//
// Fusion is Borda count over each member's deep ranking: member rank r in
// a list of depth D contributes D−r points to the video's fused score.
type Ensemble struct {
	members []retrieval.Retriever
	// Depth is how deep each member's ranking is consulted (≥ the
	// requested m; defaults to 3m).
	Depth int
}

var _ retrieval.Retriever = (*Ensemble)(nil)

// NewEnsemble returns an ensemble over the given member services.
func NewEnsemble(members ...retrieval.Retriever) *Ensemble {
	return &Ensemble{members: members}
}

// Members returns the number of fused backbones.
func (e *Ensemble) Members() int { return len(e.members) }

// Retrieve implements retrieval.Retriever by Borda-fusing member rankings.
func (e *Ensemble) Retrieve(v *video.Video, m int) []retrieval.Result {
	if len(e.members) == 0 || m <= 0 {
		return nil
	}
	depth := e.Depth
	if depth < m {
		depth = 3 * m
	}
	type fused struct {
		res   retrieval.Result
		score float64
	}
	byID := make(map[string]*fused)
	for _, member := range e.members {
		for rank, r := range member.Retrieve(v, depth) {
			f, ok := byID[r.ID]
			if !ok {
				f = &fused{res: r}
				byID[r.ID] = f
			}
			f.score += float64(depth - rank)
		}
	}
	all := make([]*fused, 0, len(byID))
	for _, f := range byID {
		all = append(all, f)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score { // fusion scores are sums of small ints in float form, exact by construction
			return all[a].score > all[b].score
		}
		return all[a].res.ID < all[b].res.ID
	})
	if m > len(all) {
		m = len(all)
	}
	out := make([]retrieval.Result, m)
	for i := 0; i < m; i++ {
		out[i] = all[i].res
		// Report the fused score's rank distance rather than any single
		// member's feature distance.
		out[i].Dist = float64(i)
	}
	return out
}
