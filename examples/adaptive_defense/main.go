// Adaptive defense: the headline EVAX result. A trained detector gates the
// Fencing and InvisiSpec mitigations: benign programs run at full speed
// while attacks trigger secure-mode windows — cutting the always-on
// mitigation overhead by an order of magnitude while keeping transient
// leakage suppressed.
//
//	go run ./examples/adaptive_defense
package main

import (
	"fmt"
	"log"

	"evax/internal/attacks"
	"evax/internal/defense"
	"evax/internal/experiments"
	"evax/internal/sim"
	"evax/internal/workload"
)

func main() {
	fmt.Println("training the EVAX pipeline (corpus + AM-GAN + detector)...")
	lab := experiments.NewLab(experiments.QuickLabOptions())
	flagger, err := defense.NewDetectorFlagger(lab.EVAX, lab.DS)
	if err != nil {
		log.Fatal(err)
	}

	dcfg := defense.DefaultConfig(sim.PolicyFenceAfterBranch)
	dcfg.SampleInterval = 2000
	dcfg.SecureWindow = 20_000

	// Benign program: compare always-on fencing vs EVAX-gated fencing.
	bench := func(fl defense.Flagger) defense.Result {
		p := workload.Compress(901, 3)
		return defense.RunProgram(sim.DefaultConfig(), p, fl, dcfg, 300_000)
	}
	base := bench(defense.NeverOn)
	always := bench(defense.AlwaysOn)
	gated := bench(flagger)
	fmt.Printf("\nbenign workload (compress):\n")
	fmt.Printf("  unprotected        IPC %.3f\n", base.IPC)
	fmt.Printf("  always-on fencing  IPC %.3f (overhead %.1f%%)\n",
		always.IPC, 100*defense.Overhead(always, base))
	fmt.Printf("  EVAX-gated fencing IPC %.3f (overhead %.1f%%, %d flags in %d windows)\n",
		gated.IPC, 100*defense.Overhead(gated, base), gated.Flags, gated.Windows)

	// Attack program: the detector flags it and the mitigation engages.
	// Fast sampling (the paper samples down to every 100 instructions)
	// catches the attack within its first rounds.
	acfg := defense.DefaultConfig(sim.PolicyInvisiSpecSpectre)
	acfg.SampleInterval = 500
	unprot := defense.RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(11, 10),
		defense.NeverOn, acfg, 2_000_000)
	atk := defense.RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(11, 10), flagger, acfg, 2_000_000)
	fmt.Printf("\nSpectre-PHT under adaptive InvisiSpec:\n")
	fmt.Printf("  windows flagged:       %d / %d\n", atk.Flags, atk.Windows)
	fmt.Printf("  secure-mode share:     %.0f%% of instructions\n",
		100*float64(atk.SecureInstr)/float64(atk.Instructions))
	fmt.Printf("  transient cache leaks: %d (unprotected run: %d)\n",
		atk.LeakedTransient, unprot.LeakedTransient)
}
