// Appenergy: the §IV co-design loop. A real FFT workload (Quantum
// ESPRESSO's kernel) runs instrumented with the energy API across CPU
// P-states and GPU power states; the program prints each configuration's
// time-to-solution vs energy-to-solution and the resulting Pareto front —
// exactly the iteration the paper wants application developers to perform.
package main

import (
	"fmt"
	"log"
	"time"

	"davide/internal/apps"
	"davide/internal/energyapi"
	"davide/internal/node"
)

func main() {
	log.SetFlags(0)

	// The real kernel: a 32³ FFT round trip, repeated. Wall time on this
	// machine sets the shape of the virtual run.
	fft, err := apps.NewFFT3D(32, 0)
	if err != nil {
		log.Fatal(err)
	}
	fft.Fill(func(x, y, z int) complex128 { return complex(float64(x^y^z), 0) })
	start := time.Now()
	const reps = 20
	for i := 0; i < reps; i++ {
		fft.Transform(false)
		fft.Transform(true)
	}
	kernelSec := time.Since(start).Seconds()
	fmt.Printf("measured FFT kernel: %d round trips in %.3f s (%.2f GFlops)\n\n",
		reps, kernelSec, 2*reps*fft.FlopsEstimate()/kernelSec/1e9)

	type config struct {
		label  string
		pstate int
		gpus   int
		load   float64
	}
	configs := []config{
		{"P-state top, 4 GPUs", 6, 4, 0.9},
		{"P-state mid, 4 GPUs", 3, 4, 0.9},
		{"P-state low, 4 GPUs", 0, 4, 0.9},
		{"P-state top, 2 GPUs", 6, 2, 0.9},
		{"P-state top, 0 GPUs (CPU-only port)", 6, 0, 0.9},
	}
	var points []energyapi.TradeoffPoint
	fmt.Printf("%-38s %10s %12s %10s\n", "configuration", "TTS s", "ETS kJ", "mean W")
	for _, c := range configs {
		n, err := node.New(0, node.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		now := 0.0
		sess, err := energyapi.NewSession(n, func() float64 { return now })
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.RequestFrequency(c.pstate); err != nil {
			log.Fatal(err)
		}
		if err := sess.ReleaseGPUs(c.gpus); err != nil {
			log.Fatal(err)
		}
		if err := sess.PhaseBegin("fft"); err != nil {
			log.Fatal(err)
		}
		if err := sess.SetLoad(c.load); err != nil {
			log.Fatal(err)
		}
		// Virtual runtime: the measured kernel scaled by frequency (CPU
		// share) and by the GPU count (offload share).
		fTop, err := n.Sockets[0].Frequency(n.PStateCount() - 1)
		if err != nil {
			log.Fatal(err)
		}
		fCur, err := n.Sockets[0].Frequency(c.pstate)
		if err != nil {
			log.Fatal(err)
		}
		cpuShare := 0.3
		gpuShare := 0.7
		gpuScale := 1.0
		if c.gpus == 0 {
			gpuScale = 8 // the whole FFT on CPU: the paper's pre-port world
		} else {
			gpuScale = 4 / float64(c.gpus)
		}
		now = 100 * (cpuShare*float64(fTop)/float64(fCur) + gpuShare*gpuScale)
		if err := sess.PhaseEnd(); err != nil {
			log.Fatal(err)
		}
		rep, err := sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-38s %10.1f %12.1f %10.0f\n", c.label, rep.TotalTimeS, rep.TotalJ/1000, rep.MeanPowerW)
		points = append(points, energyapi.TradeoffPoint{
			Label: c.label, PState: c.pstate, GPUs: c.gpus,
			TimeS: rep.TotalTimeS, EnergyJ: rep.TotalJ, PowerW: rep.MeanPowerW,
		})
	}

	front, err := energyapi.ParetoFront(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPareto front (no configuration is both faster and cheaper):")
	for _, p := range front {
		fmt.Printf("  %s\n", p.Label)
	}
}
