package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/experiments"
	"evax/internal/gan"
	"evax/internal/safeio"
	"evax/internal/serve"
)

// span is one timed call at a layer boundary. Spans of one verdict or one
// session share an ID; Parent indexes the enclosing span (-1 for none).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer keeps every span in memory; it is written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, id uint64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i, recording count units of work done inside it.
func (t *tracer) end(i int, count int64) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.spans[i].Count = count
}

// mark records an instantaneous event as a zero-length span.
func (t *tracer) mark(name string, id uint64) {
	t.end(t.begin(name, id, -1), 1)
}

// The traced run. It hosts the server in-process with evaxd's configuration
// (so its snapshot and this process's allocation counters can be read),
// runs every workload's traced variant (the named workload for the full run
// length, the others for tracedShort), times the calls into each layer's
// public functions, and prints the per-layer metrics. Its own end-to-end
// figures go to standard error as "perfbench <workload> traced: {...}";
// their difference from an untraced run is the tracing overhead.

// tracedShort is the run length of the variants other than the named one.
const tracedShort = 3.0

func runTraced(e env, workload string) (result, error) {
	tr := newTracer()
	res := result{Correct: true, Metrics: map[string]metric{}}
	lm := res.Metrics
	for _, w := range []string{"paced", "churn", "offline"} {
		we := e
		if w != workload {
			we.seconds = math.Min(e.seconds, tracedShort)
		}
		var (
			r   result
			err error
		)
		switch w {
		case "paced":
			r, err = tracePaced(we, tr, lm)
		case "churn":
			r, err = traceChurn(we, tr, lm)
		case "offline":
			r, err = traceOffline(we, tr, lm)
		}
		if err != nil {
			return res, fmt.Errorf("traced %s: %w", w, err)
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if w == workload {
			line, err := json.Marshal(r.Metrics)
			if err != nil {
				return res, err
			}
			fmt.Fprintf(os.Stderr, "perfbench %s traced: %s\n", w, line)
		}
	}
	if err := tr.write(filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d.json", workload, e.seed))); err != nil {
		return res, err
	}
	return res, nil
}

// write persists every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return safeio.WriteFile(path, data, 0o644)
}

func tracePaced(e env, tr *tracer, lm map[string]metric) (result, error) {
	n := pacedLength(e)
	st, err := pacedSetup(e, n, true)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out, err := pacedWindow(st, n, tr)
	runtime.ReadMemStats(&m1)
	if err != nil {
		st.srv.abort()
		return result{}, err
	}
	v := float64(out.verdicts)
	lm["serve.allocs_per_verdict"] = metric{float64(m1.Mallocs-m0.Mallocs) / v, "count"}
	lm["serve.alloc_bytes_per_verdict"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / v, "B"}
	lm["serve.gc_per_1k_verdicts"] = metric{float64(m1.NumGC-m0.NumGC) / (v / 1000), "count"}
	var batches, rows float64
	for size, count := range out.snap.BatchOccupancy {
		batches += float64(count)
		rows += float64(size) * float64(count)
	}
	lm["serve.batch_occupancy_mean"] = metric{rows / batches, "count"}
	lm["serve.server_p50_ms"] = metric{out.snap.LatencyP50Ms, "ms"}
	addCount(lm, "serve.rejected_overload", out.snap.RejectedLoad)
	addCount(lm, "serve.verdicts_shed", out.snap.Shed)
	if err := wireProbes(st.p, tr, lm); err != nil {
		return result{}, err
	}
	return pacedResult(st, out, st.genCPU)
}

func traceChurn(e env, tr *tracer, lm map[string]metric) (result, error) {
	st, err := churnSetup(e, true)
	if err != nil {
		return result{}, err
	}
	out, err := churnWindow(st, e, tr)
	if err != nil {
		st.srv.abort()
		return result{}, err
	}
	lm["serve.handshake_us"] = metric{median(out.handshakeUs), "us"}
	lm["serve.close_us"] = metric{median(out.closeUs), "us"}
	lm["serve.frames_deduped"] = metric{float64(out.snap.Dupes), "count"}
	lm["serve.verdicts_resent"] = metric{float64(out.snap.Resent), "count"}
	addCount(lm, "serve.rejected_overload", out.snap.RejectedLoad)
	addCount(lm, "serve.verdicts_shed", out.snap.Shed)
	if err := promoteProbe(st, tr, lm); err != nil {
		return result{}, err
	}
	return churnResult(out, st.genCPU), nil
}

// addCount adds a count to a metric both serving variants report.
func addCount(lm map[string]metric, name string, n uint64) {
	lm[name] = metric{lm[name].Value + float64(n), "count"}
}

func traceOffline(e env, tr *tracer, lm map[string]metric) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(offlineProcs))
	start := time.Now()
	c0 := selfCPU()
	sp := tr.begin("heldout", 0, -1)
	h := makeHeldOut(e.seed)
	tr.end(sp, int64(len(h.samples)))
	setup := selfCPU() - c0

	// NewLab simulates its training corpus itself; the same collection
	// made alone gives the simulator's share of the training CPU.
	co := trainOptions().Corpus
	co.Jobs = 1
	sp = tr.begin("dataset.CollectAll", 0, -1)
	c1 := selfCPU()
	samples := dataset.CollectAll(co)
	collect := selfCPU() - c1
	tr.end(sp, int64(len(samples)))
	var instr, cycles uint64
	for i := range samples {
		instr += samples[i].Instructions
		cycles += samples[i].Cycles
	}
	lm["sim.minstr_per_core_s"] = metric{float64(instr) / 1e6 / collect, "M/s"}
	lm["sim.mcycles_per_core_s"] = metric{float64(cycles) / 1e6 / collect, "M/s"}
	lm["dataset.collect_core_s"] = metric{collect, "s"}
	lm["dataset.windows"] = metric{float64(len(samples)), "count"}

	v, err := vaccinate(h, tr)
	if err != nil {
		return result{}, err
	}
	lm["experiments.fit_core_s"] = metric{v.trainCPU - collect, "s"}
	lm["defense.run_core_s"] = metric{v.defenseCPU, "s"}
	lm["defense.flag_window_ns"] = metric{float64(v.flagger.ns) / float64(v.flagger.calls), "ns"}
	dig, _, err := offlineCheck(h, v, e.seed)
	if err != nil {
		return result{}, err
	}
	ganProbe(v.lab, tr, lm)
	if err := engineProbes(v, h, tr, lm); err != nil {
		return result{}, err
	}
	var rp replayOut
	if err := replayUntil(&rp, v.gen, h, dig.Sum(), e.seed, start.Add(time.Duration(e.seconds*float64(time.Second))), tr); err != nil {
		return result{}, err
	}
	lm["serve.replay_ns_per_row"] = metric{rp.cpu * 1e9 / float64(rp.rows), "ns"}
	rss, err := peakRSSMB(0)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   true,
		Attempted: int64(rp.passes + len(v.attackRuns) + 2*len(v.adaptive) + 1),
		Metrics: map[string]metric{
			"setup_s":             {setup, "s"},
			"mem_mb":              {rss, "MB"},
			"verdicts_per_core_s": {float64(rp.rows) / rp.cpu, "1/s"},
			"p50_ms":              {median(rp.passMs), "ms"},
			"round_core_s":        {v.trainCPU + v.defenseCPU, "s"},
		},
	}, nil
}

// probeCPU is how long each micro-probe loop runs, in CPU seconds.
const probeCPU = 0.1

// repeatCPU calls fn (which does ops operations per call) until probeCPU
// CPU seconds have passed, and returns CPU nanoseconds per operation.
func repeatCPU(ops int, fn func()) float64 {
	c0 := selfCPU()
	n := 0
	for selfCPU()-c0 < probeCPU {
		fn()
		n += ops
	}
	return (selfCPU() - c0) * 1e9 / float64(n)
}

// wireProbes times the frame layer over a buffered stream of the workload's
// sample frames.
func wireProbes(p *pool, tr *tracer, lm map[string]metric) error {
	const frames = 4096
	var buf []byte
	for i := 0; i < frames; i++ {
		s := &p.samples[i%len(p.samples)]
		buf = serve.AppendSample(buf, serve.SampleHeader{Seq: uint64(i)}, s.Instructions, s.Cycles, s.Raw)
	}
	payloads := make([][]byte, 0, frames)
	var readErr error
	rd := bytes.NewReader(buf)
	br := bufio.NewReaderSize(rd, 64<<10)
	readAll := func() {
		rd.Reset(buf)
		br.Reset(rd)
		payloads = payloads[:0]
		for {
			fr, err := serve.ReadFrame(br)
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr = err
				return
			}
			payloads = append(payloads, fr.Payload)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	readAll()
	runtime.ReadMemStats(&m1)
	lm["serve.read_frame_allocs"] = metric{float64(m1.Mallocs-m0.Mallocs) / frames, "count"}
	sp := tr.begin("serve.ReadFrame", 0, -1)
	lm["serve.read_frame_ns"] = metric{repeatCPU(frames, readAll), "ns"}
	tr.end(sp, frames)
	if readErr != nil || len(payloads) != frames {
		return fmt.Errorf("frame probe read %d of %d frames: %v", len(payloads), frames, readErr)
	}
	raw := make([]float64, p.rawDim)
	var decErr error
	sp = tr.begin("serve.DecodeSampleInto", 0, -1)
	lm["serve.decode_sample_ns"] = metric{repeatCPU(frames, func() {
		for _, pl := range payloads {
			if _, _, _, err := serve.DecodeSampleInto(pl, raw); err != nil {
				decErr = err
			}
		}
	}), "ns"}
	tr.end(sp, frames)
	if decErr != nil {
		return decErr
	}
	out := make([]byte, 0, 64)
	sp = tr.begin("serve.AppendVerdict", 0, -1)
	lm["serve.append_verdict_ns"] = metric{repeatCPU(frames, func() {
		for i := 0; i < frames; i++ {
			out = serve.AppendVerdict(out[:0], serve.Verdict{Seq: uint64(i), Score: 0.5, Flags: serve.VerdictFlagged})
		}
	}), "ns"}
	tr.end(sp, frames)
	return nil
}

// promoteProbe times Manager.Promote with the canary corpus, alternating
// the two kept bundles as the churn workload's swaps do.
func promoteProbe(st *churnState, tr *tracer, lm map[string]metric) error {
	const swaps = 8
	mgr, err := engine.NewManager(st.models[0].gen, engine.ManagerConfig{Backend: serve.BackendFloat, Corpus: st.p.samples})
	if err != nil {
		return err
	}
	var ms []float64
	rows := 0
	for i := 1; i <= swaps; i++ {
		sp := tr.begin("engine.Promote", uint64(i), -1)
		t0 := time.Now()
		rep, err := mgr.Promote(st.models[i%2].gen)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp, int64(rep.CanaryRows))
		if err != nil {
			return err
		}
		if !rep.Swapped {
			return fmt.Errorf("promote probe %d refused: %s", i, rep.Reason)
		}
		rows = rep.CanaryRows
	}
	lm["engine.promote_ms"] = metric{median(ms), "ms"}
	lm["engine.canary_rows"] = metric{float64(rows), "count"}
	return nil
}

// ganProbe times AMGAN.TrainStep on a fresh network with the lab's
// configuration over the lab's own training vectors.
func ganProbe(lab *experiments.Lab, tr *tracer, lm map[string]metric) {
	const steps = 256
	idx := make([]int, len(lab.DS.Samples))
	for i := range idx {
		idx[i] = i
	}
	vecs := detect.EVAXBase().GatherBatch(lab.DS, idx)
	g := gan.New(lab.GAN.Config())
	sp := tr.begin("gan.TrainStep", 0, -1)
	us := repeatCPU(steps, func() {
		for i := 0; i < steps; i++ {
			k := i * 7919 % len(vecs)
			g.TrainStep(vecs[k], lab.ClassIndex(lab.DS.Samples[k].Class))
		}
	}) / 1e3
	tr.end(sp, steps)
	lm["gan.train_step_us"] = metric{us, "us"}
}

// engineProbes times generation compile and batch scoring, and computes the
// kernel's per-row work from the compiled shapes.
func engineProbes(v vaccination, h heldOut, tr *tracer, lm map[string]metric) error {
	var compileErr error
	sp := tr.begin("engine.FromBytes", 0, -1)
	lm["engine.compile_us"] = metric{repeatCPU(1, func() {
		if _, err := engine.FromBytes(v.bundle, "", serve.BackendFloat); err != nil {
			compileErr = err
		}
	}) / 1e3, "us"}
	tr.end(sp, 1)
	if compileErr != nil {
		return compileErr
	}
	const rows = 512
	d := v.gen.RawDim()
	raw := make([]float64, rows*d)
	instr := make([]uint64, rows)
	cycles := make([]uint64, rows)
	out := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s := &h.samples[i%len(h.samples)]
		copy(raw[i*d:], s.Raw)
		instr[i], cycles[i] = s.Instructions, s.Cycles
	}
	sc := v.gen.NewScorer()
	for _, b := range []int{32, 1} {
		sp := tr.begin(fmt.Sprintf("engine.ScoreBatch/b%d", b), uint64(b), -1)
		ns := repeatCPU(rows, func() {
			for i := 0; i < rows; i += b {
				sc.ScoreBatch(raw[i*d:(i+b)*d], instr[i:i+b], cycles[i:i+b], out[i:i+b])
			}
		})
		tr.end(sp, rows)
		lm[fmt.Sprintf("engine.score_ns_b%d", b)] = metric{ns, "ns"}
	}
	k, err := detect.CompileScorer(v.lab.EVAX, v.lab.DS.Maxima())
	if err != nil {
		return err
	}
	eng := k.Dim() - k.BaseDim()
	// Per row: the staged counter row, its two window lengths and the score,
	// plus the compiled per-feature constants (source index, view,
	// normalizer, weight; two inputs per engineered feature), loaded once
	// per block of four rows.
	constants := k.BaseDim()*(4+8+8) + k.Dim()*8 + eng*8
	lm["kernel.bytes_per_row"] = metric{float64(8*k.RawDim()+8+8+8) + float64(constants)/4, "B"}
	lm["kernel.macs_per_row"] = metric{float64(k.Dim() + eng), "count"}
	return nil
}
