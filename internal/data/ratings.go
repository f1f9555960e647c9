package data

import (
	"repro/internal/fxrand"
	"repro/internal/tensor"
)

// Ratings is a synthetic implicit-feedback recommendation dataset standing in
// for MovieLens-20M in the NCF benchmark. Ground truth preferences follow a
// latent-factor model: user u likes item v when σ(⟨p_u, q_v⟩) is high. The
// training set holds observed positives plus sampled negatives (the standard
// NCF regime); evaluation is leave-one-out with 99 sampled negatives per
// user, scored by Hit Rate@10 — the paper's "Best Hit Rate" metric.
type Ratings struct {
	Users, Items int

	// training triples
	user, item []int
	label      []float32

	// leave-one-out eval: per user, the held-out positive and 99 negatives
	evalPos  []int
	evalNegs [][]int

	rng *fxrand.RNG
}

var _ Dataset = (*Ratings)(nil)

// RatingsConfig parameterizes the generator.
type RatingsConfig struct {
	Users, Items int
	LatentDim    int
	PosPerUser   int // observed positives per user (training)
	NegPerPos    int // sampled negatives per positive
	Seed         uint64
}

// NewRatings generates the dataset.
func NewRatings(cfg RatingsConfig) *Ratings {
	r := fxrand.New(cfg.Seed)
	d := &Ratings{Users: cfg.Users, Items: cfg.Items, rng: r.Fork(77)}

	// Latent ground truth.
	p := make([][]float32, cfg.Users)
	q := make([][]float32, cfg.Items)
	for u := range p {
		p[u] = randVec(r, cfg.LatentDim)
	}
	for i := range q {
		q[i] = randVec(r, cfg.LatentDim)
	}
	score := func(u, i int) float32 {
		var s float32
		for k := 0; k < cfg.LatentDim; k++ {
			s += p[u][k] * q[i][k]
		}
		return s
	}

	for u := 0; u < cfg.Users; u++ {
		// The user's true positives are their top-scoring items among a
		// random candidate pool; this creates learnable structure without an
		// O(U·I) full sort.
		pool := r.Sample(cfg.Items, min(cfg.Items, cfg.PosPerUser*8))
		// Partial selection of top PosPerUser+1 by score.
		topK := cfg.PosPerUser + 1 // +1 held out for eval
		for sel := 0; sel < topK && sel < len(pool); sel++ {
			best := sel
			for j := sel + 1; j < len(pool); j++ {
				if score(u, pool[j]) > score(u, pool[best]) {
					best = j
				}
			}
			pool[sel], pool[best] = pool[best], pool[sel]
		}
		positives := pool[:min(topK, len(pool))]
		held := positives[0] // highest-scored item is held out
		d.evalPos = append(d.evalPos, held)
		negs := make([]int, 0, 99)
		for len(negs) < 99 {
			cand := r.Intn(cfg.Items)
			if cand != held {
				negs = append(negs, cand)
			}
		}
		d.evalNegs = append(d.evalNegs, negs)

		for _, it := range positives[1:] {
			d.user = append(d.user, u)
			d.item = append(d.item, it)
			d.label = append(d.label, 1)
			for n := 0; n < cfg.NegPerPos; n++ {
				d.user = append(d.user, u)
				d.item = append(d.item, r.Intn(cfg.Items))
				d.label = append(d.label, 0)
			}
		}
	}
	return d
}

func randVec(r *fxrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}

// Len returns the number of training triples.
func (d *Ratings) Len() int { return len(d.user) }

// Batch assembles (user,item) id pairs with binary labels in YF.
func (d *Ratings) Batch(indices []int) Batch {
	ids := make([][]int, len(indices))
	yf := tensor.New(len(indices))
	for i, idx := range indices {
		ids[i] = []int{d.user[idx], d.item[idx]}
		yf.Data()[i] = d.label[idx]
	}
	return Batch{IDs: ids, YF: yf}
}

// EvalCases returns the leave-one-out evaluation cases: for each user, the
// held-out positive item and its 99 sampled negatives.
func (d *Ratings) EvalCases() (pos []int, negs [][]int) { return d.evalPos, d.evalNegs }
