// Package aco supplies the ant-colony-optimization primitives shared by the
// ISE exploration algorithms: deterministic seeded randomness, roulette-wheel
// selection over non-negative weights, and weight normalization. The
// problem-specific machinery — trail/merit tables, the Fig. 4.3.5 trail
// update, the P_END test and the shared merit cases — is core.Colony, which
// both ISE explorers (core and baseline) embed.
package aco

import "math/rand"

// NewRand returns a deterministic generator for the given seed. Exploration
// is a randomized heuristic; a fixed seed makes every run reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SelectWeighted draws an index with probability proportional to weights[i].
// Negative weights are treated as zero. If the total mass is zero, the draw
// is uniform. It panics on an empty slice.
func SelectWeighted(r *rand.Rand, weights []float64) int {
	if len(weights) == 0 {
		panic("aco: SelectWeighted on empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Normalize rescales weights in place so they sum to total, preserving
// ratios. Non-positive entries are first clamped to a tiny floor so that no
// option's probability ever reaches exactly zero (the paper keeps every
// implementation option selectable; see §4.3 case 3 discussion).
func Normalize(weights []float64, total float64) {
	const floor = 1e-9
	sum := 0.0
	for i, w := range weights {
		if w < floor {
			weights[i] = floor
		}
		sum += weights[i]
	}
	if sum <= 0 {
		return
	}
	scale := total / sum
	for i := range weights {
		weights[i] *= scale
	}
}

// MaxShare returns the largest single-element share of the (non-negative)
// weight mass — the "selected probability" used for the P_END convergence
// test — and the index achieving it.
func MaxShare(weights []float64) (share float64, idx int) {
	sum := 0.0
	best, bi := 0.0, 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sum += w
		if w > best {
			best, bi = w, i
		}
	}
	if sum <= 0 {
		return 0, 0
	}
	return best / sum, bi
}
