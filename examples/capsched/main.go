// Capsched: the power-capped scheduling study of §III-A2. It runs the
// same 300-job trace under an uncapped EASY baseline, reactive-only
// capping, and the paper's proactive+reactive mix (driven by each of the
// three job power predictors), printing the QoS/envelope trade-off.
package main

import (
	"fmt"
	"log"

	"davide/internal/predictor"
	"davide/internal/sched"
	"davide/internal/workload"
)

func main() {
	log.SetFlags(0)

	gen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(21))
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := gen.Batch(300)
	if err != nil {
		log.Fatal(err)
	}
	histGen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(777))
	if err != nil {
		log.Fatal(err)
	}
	history, err := histGen.Batch(1500)
	if err != nil {
		log.Fatal(err)
	}

	knn, err := predictor.NewKNN(8)
	if err != nil {
		log.Fatal(err)
	}
	predictors := []predictor.Predictor{predictor.NewMeanPerKey(), predictor.NewOLS(), knn}
	for _, p := range predictors {
		if err := p.Train(history); err != nil {
			log.Fatal(err)
		}
	}

	const capW = 45 * 1150.0
	fmt.Printf("machine: 45 nodes, cap %.1f kW\n\n", capW/1000)
	fmt.Printf("%-34s %9s %9s %12s %14s\n", "configuration", "slowdown", "util %", "wait min", "violation s")

	// Each run is a dispatch strategy plus the config's cap mechanism.
	run := func(name string, strategy sched.Strategy, cfg sched.Config) {
		sim, err := sched.NewSimulator(cfg, strategy, jobs)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %9.2f %9.1f %12.1f %14.1f\n",
			name, res.MeanSlowdown, res.UtilizationPct, res.MeanWait/60, res.CapViolationSec)
	}

	run("EASY uncapped", sched.NewEASYStrategy(), sched.Config{Nodes: 45, IdleNodePowerW: 360})
	run("EASY reactive-only", sched.NewEASYStrategy(), sched.Config{
		Nodes: 45, PowerCapW: capW, ReactiveCapping: true, IdleNodePowerW: 360,
	})
	for _, p := range predictors {
		run("proactive+reactive / "+p.Name(), sched.NewEASYPowerStrategy(), sched.Config{
			Nodes: 45, PowerCapW: capW,
			Estimator: p.Predict, ReactiveCapping: true, IdleNodePowerW: 360,
		})
	}
	oracle := func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil }
	run("proactive+reactive / oracle", sched.NewEASYPowerStrategy(), sched.Config{
		Nodes: 45, PowerCapW: capW,
		Estimator: oracle, ReactiveCapping: true, IdleNodePowerW: 360,
	})
}
