package defense

import (
	"fmt"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/kernel"
)

// DetectorFlagger bridges a compiled detector into the controller: each
// sampling window is scored by the fused kernel — expansion, normalization
// and the dot product in a single pass over the raw counters — and flagged
// when the score reaches the kernel's threshold, the same rule the serving
// path applies. A flagger is single-goroutine; concurrent runs each take a
// Clone. FlagWindow performs no heap allocations.
type DetectorFlagger struct {
	be kernel.Backend
}

// NewDetectorFlagger compiles det (trained on ds) into a fused float kernel
// and wires it into the controller. Only the single-layer perceptron
// compiles; any other detector is an error. The kernel snapshots the
// detector's weights and threshold, so later mutation of det does not reach
// the flagger.
func NewDetectorFlagger(det *detect.Detector, ds *dataset.Dataset) (*DetectorFlagger, error) {
	k, err := detect.CompileScorer(det, ds.Maxima())
	if err != nil {
		return nil, fmt.Errorf("defense: flagger: %w", err)
	}
	return NewBackendFlagger(k), nil
}

// NewBackendFlagger wires an already compiled backend (float or quantized)
// into the controller. The flagger takes ownership of be's scratch: pass a
// CloneBackend of a shared backend.
func NewBackendFlagger(be kernel.Backend) *DetectorFlagger {
	return &DetectorFlagger{be: be}
}

// Clone returns a flagger sharing the compiled kernel with private scratch —
// the per-job handle when runs fan out across goroutines.
func (f *DetectorFlagger) Clone() *DetectorFlagger {
	return NewBackendFlagger(f.be.CloneBackend())
}

// FlagWindow implements Flagger. Zero allocations.
//
//evaxlint:hotpath
func (f *DetectorFlagger) FlagWindow(s hpc.Sample) bool {
	return f.be.ScoreRaw(s.Values, s.Instructions, s.Cycles) >= f.be.Threshold()
}
