package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/experiments"
	"evax/internal/hpc"
	"evax/internal/runner"
	"evax/internal/safeio"
	"evax/internal/serve"
)

// Kept inputs under perfbench/testdata. They are made anew from the tree by
// makeInputs (perfbench -make-inputs); every run derives its traffic from
// them and its --seed.
const (
	bundleAFile  = "bundle_a.json" // active at start-up: evaxtrain -quick, seed 1
	bundleBFile  = "bundle_b.json" // swap partner: the same lab, seed 2
	windowsFile  = "windows.bin"   // window pool and canary corpus
	programsFile = "programs.json" // the pool's per-program row ranges
)

// windowOffset keeps the pool's program instances disjoint from the
// instances both bundles trained on.
const windowOffset = 7919

// bundleLab is the training set-up of the kept bundles (evaxtrain -quick).
func bundleLab(seed int64) experiments.LabOptions {
	o := experiments.QuickLabOptions()
	o.Seed = seed
	o.Jobs = 1
	return o
}

// makeInputs writes the kept inputs into dir.
func makeInputs(dir string) error {
	for _, b := range []struct {
		file string
		seed int64
	}{{bundleAFile, 1}, {bundleBFile, 2}} {
		lab := experiments.NewLab(bundleLab(b.seed))
		data, err := defense.EncodeBundle(lab.EVAX, lab.DS)
		if err != nil {
			return err
		}
		if err := safeio.WriteFile(filepath.Join(dir, b.file), data, 0o644); err != nil {
			return err
		}
	}
	co := dataset.DefaultCorpusOptions()
	co.Seeds = 1
	co.MaxInstr = 40_000
	co.SeedOffset = windowOffset
	co.Jobs = 1
	samples := dataset.CollectAll(co)
	var segs []segment
	for i, s := range samples {
		if n := len(segs); n > 0 && segs[n-1].Program == s.Program {
			segs[n-1].Rows++
			continue
		}
		segs = append(segs, segment{Program: s.Program, Malicious: s.Malicious, Start: i, Rows: 1})
	}
	if err := dataset.WriteCorpusFile(filepath.Join(dir, windowsFile), samples); err != nil {
		return err
	}
	data, err := json.MarshalIndent(segs, "", " ")
	if err != nil {
		return err
	}
	return safeio.WriteFile(filepath.Join(dir, programsFile), append(data, '\n'), 0o644)
}

// segment is one program run's consecutive windows in the pool.
type segment struct {
	Program   string `json:"program"`
	Malicious bool   `json:"malicious"`
	Start     int    `json:"start"`
	Rows      int    `json:"rows"`
}

// pool is the kept window pool every serving stream is cut from.
type pool struct {
	samples        []dataset.Sample
	segs           []segment
	benign, attack []int // segment indices
	rawDim         int
}

func loadPool(dir string) (*pool, error) {
	samples, err := dataset.ReadCorpusFile(filepath.Join(dir, windowsFile))
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, programsFile))
	if err != nil {
		return nil, err
	}
	p := &pool{samples: samples}
	if err := json.Unmarshal(data, &p.segs); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", programsFile, err)
	}
	for i, sg := range p.segs {
		if sg.Rows <= 0 || sg.Start < 0 || sg.Start+sg.Rows > len(samples) {
			return nil, fmt.Errorf("perfbench: segment %d (%s) outside the %d-row pool", i, sg.Program, len(samples))
		}
		if sg.Malicious {
			p.attack = append(p.attack, i)
		} else {
			p.benign = append(p.benign, i)
		}
	}
	if len(p.benign) == 0 || len(p.attack) == 0 || len(samples) == 0 {
		return nil, fmt.Errorf("perfbench: pool needs benign and attack programs")
	}
	p.rawDim = len(samples[0].Raw)
	return p, nil
}

// model is one kept bundle with its oracle verdict for every pool row.
type model struct {
	path  string
	gen   *engine.Generation
	score []float64
	flag  []bool
}

// loadModel compiles a bundle the way evaxd does and scores the pool through
// the legacy three-pass path, which stays apart from the compiled kernel.
func loadModel(path string, p *pool) (*model, error) {
	gen, err := engine.Load(path, serve.BackendFloat)
	if err != nil {
		return nil, err
	}
	m := &model{path: path, gen: gen, score: make([]float64, len(p.samples)), flag: make([]bool, len(p.samples))}
	det, ds := gen.Detector(), gen.Dataset()
	for i := range p.samples {
		m.score[i] = legacyScore(det, ds, &p.samples[i])
		m.flag[i] = m.score[i] >= det.Threshold
	}
	return m, nil
}

// legacyScore is the oracle: expand the window (hpc), normalize it with the
// bundle's maxima (dataset), then score it (detect).
func legacyScore(det *detect.Detector, ds *dataset.Dataset, s *dataset.Sample) float64 {
	d := hpc.ExpandDerived(hpc.Sample{Values: s.Raw, Instructions: s.Instructions, Cycles: s.Cycles})
	ds.NormalizeInPlace(d)
	return det.Score(d)
}

// attackEpisodeP is the chance that an attack program's run follows a benign
// one on a stream's timeline.
const attackEpisodeP = 0.03

// stream is one client's window timeline: the pool row of each window and
// the committed-instruction count at its start.
type stream struct {
	rows       []int32
	instrStart []uint64
}

// buildStream cuts n windows of program runs from the pool: benign runs in
// seeded order, each followed by an attack run with probability
// attackEpisodeP.
func buildStream(p *pool, name string, index int, seed int64, n int) stream {
	rng := rand.New(rand.NewSource(runner.DeriveSeed("perfbench/"+name, index, seed)))
	st := stream{rows: make([]int32, 0, n), instrStart: make([]uint64, 0, n)}
	var instr uint64
	add := func(seg segment) {
		for r := seg.Start; r < seg.Start+seg.Rows && len(st.rows) < n; r++ {
			st.rows = append(st.rows, int32(r))
			st.instrStart = append(st.instrStart, instr)
			instr += p.samples[r].Instructions
		}
	}
	for len(st.rows) < n {
		add(p.segs[p.benign[rng.Intn(len(p.benign))]])
		if rng.Float64() < attackEpisodeP {
			add(p.segs[p.attack[rng.Intn(len(p.attack))]])
		}
	}
	return st
}

// attackShare is the fraction of a stream's windows cut from attack runs.
func (st stream) attackShare(p *pool) float64 {
	a := 0
	for _, r := range st.rows {
		if p.samples[r].Malicious {
			a++
		}
	}
	return float64(a) / float64(len(st.rows))
}

// expect computes a stream's verdicts from the oracle: scores from the
// model, and the Flagged and Secure bits from the stream's own instruction
// timeline and the secure window, applied in order. Windows marked in skip
// (nil for none) were rejected unscored and move no secure window.
func expect(m *model, p *pool, st stream, secureWindow uint64, skip []bool) []serve.Verdict {
	out := make([]serve.Verdict, len(st.rows))
	var secureUntil uint64
	for i, r := range st.rows {
		if skip != nil && skip[i] {
			continue
		}
		end := st.instrStart[i] + p.samples[r].Instructions
		var flags uint8
		if m.flag[r] {
			flags |= serve.VerdictFlagged
			secureUntil = end + secureWindow
		}
		if m.flag[r] || end < secureUntil {
			flags |= serve.VerdictSecure
		}
		out[i] = serve.Verdict{Seq: uint64(i), Score: m.score[r], Flags: flags}
	}
	return out
}
