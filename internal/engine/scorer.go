package engine

import "evax/internal/kernel"

// Scorer is one consumer's handle on a generation's scoring pipeline: a
// private clone of the generation's compiled kernel (shared compiled state,
// private scratch). A scorer is single-goroutine; each serve shard and
// replay worker holds its own. After construction the score path performs
// zero heap allocations, and the float backend is bit-identical to
// detect.Detector.Score over the same rows.
type Scorer struct {
	gen *Generation
	be  kernel.Backend
}

// NewScorer builds a private scoring handle on the generation. All fallible
// work (decode, validation, kernel compile) happened when the generation
// was built, so handle construction cannot fail — which is what lets the
// serve hot path rebuild its handle inline when a swap lands.
func (g *Generation) NewScorer() *Scorer {
	return &Scorer{gen: g, be: g.be.CloneBackend()}
}

// Generation returns the generation this scorer was resolved from —
// consumers compare it against Swapper.Active to decide when to re-resolve.
func (sc *Scorer) Generation() *Generation { return sc.gen }

// Score runs the fused kernel on one raw window. Zero allocations.
func (sc *Scorer) Score(raw []float64, instructions, cycles uint64) float64 {
	return sc.be.ScoreRaw(raw, instructions, cycles)
}

// ScoreBatch scores rows of contiguous raw windows (len(out) rows of rawDim
// values) — the shard flush form, one fused-kernel sweep over the whole
// batch. Zero allocations.
//
//evaxlint:hotpath
func (sc *Scorer) ScoreBatch(raw []float64, instr, cycles []uint64, out []float64) {
	sc.be.ScoreRawRows(raw, instr, cycles, out)
}

// Threshold exposes the decision boundary of the compiled backend.
func (sc *Scorer) Threshold() float64 { return sc.be.Threshold() }
