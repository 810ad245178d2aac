package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/engine"
	"evax/internal/experiments"
	"evax/internal/fleet"
	"evax/internal/hpc"
	"evax/internal/isa"
	"evax/internal/runner"
	"evax/internal/serve"
	"evax/internal/sim"
	"evax/internal/workload"
)

// The offline workload: the vaccination pipeline in one process with one
// worker. Set-up simulates the held-out inputs from the seed; the timed
// round trains the detector (corpus simulation, AM-GAN, HPC mining,
// detector training), encodes and compiles the bundle, and runs held-out
// programs under adaptive defense with it; the rest of the run replays the
// held-out windows through the compiled generation.
const (
	offlinePrograms  = 3 // held-out attack programs, and as many benign ones
	defenseMaxInstr  = 100_000
	defenseWindow    = 20_000 // secure window of the adaptive runs, as in Figure 14
	offlineRounds    = 3      // vaccination rounds per run; round_core_s is their median
	offlineProbes    = 2      // set-ups measured before the rounds, and again after each
	minReplayPasses  = 20     // per replay chunk
	attackFlagFloor  = 0.95
	benignFlagCeil   = 0.05
	quantizedAgreeLo = engine.DefaultAgreementGate
)

// heldOut is the offline workload's seeded input: a corpus of program
// instances disjoint from the training corpus, and the programs run under
// adaptive defense.
type heldOut struct {
	samples []dataset.Sample
	attack  []*isa.Program
	benign  []*isa.Program
}

// trainOptions is the pipeline's fixed training set-up (evaxtrain -quick,
// one worker); the seed varies only the held-out inputs.
func trainOptions() experiments.LabOptions { return bundleLab(1) }

func makeHeldOut(seed int64) heldOut {
	co := trainOptions().Corpus
	co.Seeds = 1
	co.SeedOffset = 100_000 + seed
	co.Jobs = 1
	h := heldOut{samples: dataset.CollectAll(co)}
	rng := rand.New(rand.NewSource(runner.DeriveSeed("perfbench/offline/programs", 0, seed)))
	as, ws := attacks.All(), workload.All()
	for i, k := range rng.Perm(len(as))[:offlinePrograms] {
		h.attack = append(h.attack, as[k].Build(runner.DeriveSeed("perfbench/offline/attack", i, seed), co.AttackScale))
	}
	for i, k := range rng.Perm(len(ws))[:offlinePrograms] {
		h.benign = append(h.benign, ws[k].Build(runner.DeriveSeed("perfbench/offline/benign", i, seed), co.Scale))
	}
	return h
}

// timedFlagger times every FlagWindow call of the adaptive runs.
type timedFlagger struct {
	fl    defense.Flagger
	calls int64
	ns    int64
}

func (t *timedFlagger) FlagWindow(s hpc.Sample) bool {
	t0 := time.Now()
	f := t.fl.FlagWindow(s)
	t.ns += time.Since(t0).Nanoseconds()
	t.calls++
	return f
}

// vaccination is what the timed round produced and measured.
type vaccination struct {
	lab        *experiments.Lab
	bundle     []byte
	gen        *engine.Generation
	attackRuns []defense.Result
	adaptive   []defense.Result // benign programs under adaptive defense
	alwaysOn   []defense.Result // the same programs always protected
	trainCPU   float64          // corpus simulation through the encoded bundle
	defenseCPU float64
	flagger    *timedFlagger // traced runs only
}

// vaccinate runs the timed round: train, encode, compile, defend.
func vaccinate(h heldOut, tr *tracer) (vaccination, error) {
	var v vaccination
	c0 := selfCPU()
	sp := tr.begin("experiments.NewLab", 0, -1)
	v.lab = experiments.NewLab(trainOptions())
	tr.end(sp, int64(len(v.lab.DS.Samples)))
	var err error
	if v.bundle, err = defense.EncodeBundle(v.lab.EVAX, v.lab.DS); err != nil {
		return v, err
	}
	c1 := selfCPU()
	v.trainCPU = c1 - c0
	if v.gen, err = engine.FromBytes(v.bundle, "", serve.BackendFloat); err != nil {
		return v, err
	}
	dcfg := defense.DefaultConfig(sim.PolicyFenceAfterBranch)
	dcfg.SampleInterval = trainOptions().Corpus.Interval
	dcfg.SecureWindow = defenseWindow
	var fl defense.Flagger = v.gen.Flagger()
	if tr != nil {
		v.flagger = &timedFlagger{fl: fl}
		fl = v.flagger
	}
	run := func(p *isa.Program, fl defense.Flagger) defense.Result {
		sp := tr.begin("defense.RunProgram", 0, -1)
		r := defense.RunProgram(sim.DefaultConfig(), p, fl, dcfg, defenseMaxInstr)
		tr.end(sp, int64(r.Windows))
		return r
	}
	for _, p := range h.attack {
		v.attackRuns = append(v.attackRuns, run(p, fl))
	}
	for _, p := range h.benign {
		v.adaptive = append(v.adaptive, run(p, fl))
		v.alwaysOn = append(v.alwaysOn, run(p, defense.AlwaysOn))
	}
	v.defenseCPU = selfCPU() - c1
	return v, nil
}

// offlineCheck checks the vaccination against the oracle and returns the
// oracle's held-out verdict digest. It fails on any detection, defense,
// quantized-agreement or fleet-replay violation.
func offlineCheck(h heldOut, v vaccination, seed int64) (engine.Digest, map[string]float64, error) {
	det, ds := v.lab.EVAX, v.lab.DS
	dig := engine.NewDigest()
	flags := make([]bool, len(h.samples))
	var atk, atkFlag, ben, benFlag int
	for i := range h.samples {
		s := &h.samples[i]
		score := legacyScore(det, ds, s)
		flags[i] = score >= det.Threshold
		dig.Add(score, flags[i])
		if s.Malicious {
			atk++
			if flags[i] {
				atkFlag++
			}
		} else {
			ben++
			if flags[i] {
				benFlag++
			}
		}
	}
	kv := map[string]float64{
		"heldout_attack_flagged": float64(atkFlag) / float64(atk),
		"heldout_benign_flagged": float64(benFlag) / float64(ben),
	}
	if kv["heldout_attack_flagged"] < attackFlagFloor || kv["heldout_benign_flagged"] > benignFlagCeil {
		return dig, kv, fmt.Errorf("detector flags %.3f of held-out attack and %.3f of benign windows (want >= %.2f and <= %.2f)",
			kv["heldout_attack_flagged"], kv["heldout_benign_flagged"], attackFlagFloor, benignFlagCeil)
	}
	for i, r := range v.attackRuns {
		if r.Flags == 0 {
			return dig, kv, fmt.Errorf("attack program %s raised no flag under adaptive defense", h.attack[i].Name)
		}
	}
	for i := range v.adaptive {
		if v.adaptive[i].IPC < v.alwaysOn[i].IPC {
			return dig, kv, fmt.Errorf("benign program %s: adaptive IPC %.4f below always-on %.4f",
				h.benign[i].Name, v.adaptive[i].IPC, v.alwaysOn[i].IPC)
		}
	}
	// The quantized backend must agree with the oracle's flags up to the
	// canary gate.
	q, err := engine.FromBytes(v.bundle, "", serve.BackendQuantized)
	if err != nil {
		return dig, kv, err
	}
	sc := q.NewScorer()
	agree := 0
	for i := range h.samples {
		s := &h.samples[i]
		if (sc.Score(s.Raw, s.Instructions, s.Cycles) >= sc.Threshold()) == flags[i] {
			agree++
		}
	}
	kv["quantized_agreement"] = float64(agree) / float64(len(h.samples))
	if kv["quantized_agreement"] < quantizedAgreeLo {
		return dig, kv, fmt.Errorf("quantized backend agrees on %.4f of flags (gate %.4f)", kv["quantized_agreement"], quantizedAgreeLo)
	}
	// A 2-shard fleet replay of the same rows must reproduce the digest.
	fl, err := fleet.New(v.bundle, fleet.Config{Shards: 2, Serve: serve.DefaultConfig()})
	if err != nil {
		return dig, kv, err
	}
	if err := fl.Start(); err != nil {
		return dig, kv, err
	}
	rep, rerr := fl.Replay(h.samples, fleet.ReplayOptions{Seed: seed})
	if _, err := fl.Drain(); rerr == nil {
		rerr = err
	}
	if rerr != nil {
		return dig, kv, rerr
	}
	if rep.Hash != dig.Sum() {
		return dig, kv, fmt.Errorf("2-shard fleet replay digest %s, oracle %016x", rep.HashHex(), dig.Sum())
	}
	return dig, kv, nil
}

// replayOut is what the replay phase measured.
type replayOut struct {
	passes, rows int
	cpu          float64
	passMs       []float64
}

// replayUntil replays the held-out windows through the generation, each pass
// in a different order, until the deadline (and at least minReplayPasses
// times), adding to out; every pass's digest must equal the oracle's.
func replayUntil(out *replayOut, gen *engine.Generation, h heldOut, want uint64, seed int64, deadline time.Time, tr *tracer) error {
	c0 := selfCPU()
	defer func() { out.cpu += selfCPU() - c0 }()
	for n := 0; n < minReplayPasses || time.Now().Before(deadline); n++ {
		order := runner.DeriveSeed("perfbench/offline/replay", out.passes, seed)
		sp := tr.begin("serve.ReplayGeneration", uint64(out.passes), -1)
		t0 := time.Now()
		res, err := serve.ReplayGeneration(gen, h.samples, order, 1)
		out.passMs = append(out.passMs, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp, int64(res.Rows))
		if err != nil {
			return err
		}
		if res.Hash != want {
			return fmt.Errorf("replay pass %d (order seed %d): digest %s, oracle %016x", out.passes, order, res.HashHex(), want)
		}
		out.passes++
		out.rows += res.Rows
	}
	return nil
}

// offlineProcs is the offline process's GOMAXPROCS: one worker, and no idle
// processor for the garbage collector's idle-priority mark workers, whose
// CPU would otherwise count as pipeline work whenever the second core is
// free.
const offlineProcs = 1

func runOffline(e env) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(offlineProcs))
	start, steal0 := time.Now(), stealSeconds()
	var h heldOut
	probe := func() (float64, error) {
		c0 := selfCPU()
		h = makeHeldOut(e.seed)
		return selfCPU() - c0, nil
	}
	setups, err := probeSetups(nil, offlineProbes, probe)
	if err != nil {
		return result{}, err
	}
	// Rounds alternate with replay chunks, so both figures sample the whole
	// run rather than one stretch of it.
	var (
		v        vaccination
		dig      engine.Digest
		kv       map[string]float64
		rp       replayOut
		roundCPU []float64
	)
	for k := 0; k < offlineRounds; k++ {
		vk, err := vaccinate(h, nil)
		if err != nil {
			return result{}, err
		}
		if k == 0 {
			v = vk
			if dig, kv, err = offlineCheck(h, v, e.seed); err != nil {
				return result{}, err
			}
		} else if !bytes.Equal(vk.bundle, v.bundle) {
			return result{}, fmt.Errorf("round %d trained a different bundle than round 0", k)
		}
		roundCPU = append(roundCPU, vk.trainCPU+vk.defenseCPU)
		if setups, err = probeSetups(setups, offlineProbes, probe); err != nil {
			return result{}, err
		}
		chunkEnd := start.Add(time.Duration(e.seconds * float64(k+1) / offlineRounds * float64(time.Second)))
		if err := replayUntil(&rp, vk.gen, h, dig.Sum(), e.seed, chunkEnd, nil); err != nil {
			return result{}, err
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   true,
		Attempted: int64(rp.passes + offlineRounds*(len(v.attackRuns)+2*len(v.adaptive)+1)),
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"mem_mb":              {rss, "MB"},
			"verdicts_per_core_s": {float64(rp.rows) / rp.cpu, "1/s"},
			"p50_ms":              {median(rp.passMs), "ms"},
			"round_core_s":        {median(append([]float64(nil), roundCPU...)), "s"},
		},
	}
	var instr, cycles uint64
	for _, rs := range [][]defense.Result{v.attackRuns, v.adaptive, v.alwaysOn} {
		for _, r := range rs {
			instr += r.Instructions
			cycles += r.Cycles
		}
	}
	kv["train_core_s"] = v.trainCPU
	kv["defense_core_s"] = v.defenseCPU
	for k, c := range roundCPU {
		kv[fmt.Sprintf("round%d_core_s", k)] = c
	}
	kv["defense_ipc"] = float64(instr) / float64(cycles)
	kv["replay_passes"] = float64(rp.passes)
	kv["replay_rows"] = float64(rp.rows)
	kv["heldout_windows"] = float64(len(h.samples))
	kv["wall_s"] = time.Since(start).Seconds()
	kv["steal_s"] = stealSeconds() - steal0
	report("offline", kv)
	return res, nil
}
