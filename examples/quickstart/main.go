// Quickstart: build the D.A.V.I.D.E. pilot, run a workload under a power
// cap with the trained predictor, and read the energy accounting — the
// whole batch path in ~60 lines.
package main

import (
	"fmt"
	"log"

	"davide/internal/core"
	"davide/internal/sched"
	"davide/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. A synthetic workload: 1000 historical jobs to train the power
	//    predictor, 150 fresh jobs to schedule.
	gen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	history, err := gen.Batch(1000)
	if err != nil {
		log.Fatal(err)
	}
	work, err := gen.Batch(150)
	if err != nil {
		log.Fatal(err)
	}
	base := work[0].SubmitAt
	for i := range work {
		work[i].SubmitAt -= base
	}

	// 2. The pilot system: 45 Garrison nodes, trained predictor.
	sys, err := core.NewSystem(history)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Schedule under a 52 kW machine cap, proactive (EASY backfill
	// admitting on the trained predictor) + reactive.
	res, err := sys.RunScheduled(work, sched.Config{
		PowerCapW:       52_000,
		ReactiveCapping: true,
	}, sched.NewEASYPowerStrategy())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy %s: %d jobs in %.1f h, mean slowdown %.2f, cap violated %.0f s\n",
		res.Policy, res.Jobs, res.Makespan/3600, res.MeanSlowdown, res.CapViolationSec)

	// 4. Energy accounting: who used what.
	fmt.Printf("total energy: %.1f kWh\n", sys.Ledger.TotalEnergy()/3.6e6)
	for i, u := range sys.Ledger.PerUser() {
		if i >= 3 {
			break
		}
		fmt.Printf("  user %2d: %.1f kWh over %d jobs\n", u.User, u.EnergyJ/3.6e6, u.Jobs)
	}

	// 5. Bill one job: dynamic energy to the user, idle floor to the centre.
	user, centre, err := sys.Ledger.Bill(work[0].ID, 360, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %d bill at 0.25/kWh: user %.2f, centre %.2f\n", work[0].ID, user, centre)
}
