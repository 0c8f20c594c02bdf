// Package tournament runs the scheduler strategy tournament: every
// registered admission policy (implemented as a pluggable
// sched.Strategy) swept across every stress axis — clean transport, the
// four gateway chaos presets, and the eight named scenarios — at a
// fixed seed and the E19/E22 reference geometry, scored on cap holding,
// accounting fidelity and queueing QoS, and ranked into a leaderboard.
//
// Everything is deterministic: the same Config produces a bit-identical
// Report, so the committed tournament.json and the STRATEGY_LEDGER.md
// rendered from it are regenerable byte-for-byte. The curated findings
// section of the ledger is the one exception — RenderLedger preserves
// it across regenerations (see ledger.go).
package tournament

import (
	"fmt"
	"sort"

	"davide/internal/sched"
)

// Policy is one tournament entrant: a registered admission discipline
// plus what the tournament adds to it.
type Policy struct {
	// Name is the discipline's sched registry key (sched.Lookup), the
	// leaderboard row and the CLI -policies spelling.
	Name string
	// Desc is the one-line description shown in the ledger.
	Desc string
	// Reactive enables node-level reactive capping for the policy's
	// runs. Power-blind baselines run without it (the paper's FIFO
	// baseline geometry); power-aware policies run with it (the
	// configuration the paper advocates).
	Reactive bool
}

// PowerAware reports whether the policy consults power predictions. An
// entrant the sched registry does not know reads false; runCell refuses
// to run it.
func (p Policy) PowerAware() bool {
	s, err := sched.Lookup(p.Name)
	return err == nil && s.PowerAware()
}

// policies lists the entrants, in leaderboard-stable declaration order:
// power-blind baselines first, power-aware refinements after.
var policies = []Policy{
	{
		Name:     "fifo",
		Desc:     "strict submission order, power-blind — the paper's baseline",
		Reactive: false,
	},
	{
		Name:     "sjf",
		Desc:     "shortest-job-first by user wall limit, power-blind",
		Reactive: false,
	},
	{
		Name:     "easy",
		Desc:     "EASY-backfill with a shadow-time head reservation, power-blind",
		Reactive: false,
	},
	{
		Name:     "power",
		Desc:     "greedy backfill under the cap with head-reserve — the paper's power-aware admission",
		Reactive: true,
	},
	{
		Name:     "sjf-power",
		Desc:     "shortest-first ordering with power-aware admission under the cap",
		Reactive: true,
	},
	{
		Name:     "weighted",
		Desc:     "weighted scoring: queue-age reward, predicted power+energy penalties, headroom best-fit",
		Reactive: true,
	},
	{
		Name:     "edf-power",
		Desc:     "earliest-deadline-first under the cap (synthetic deadlines at 3x wall limit)",
		Reactive: true,
	},
}

// Policies returns the registered policies in leaderboard order.
func Policies() []Policy { return append([]Policy(nil), policies...) }

// PolicyNames lists the registered policy names in leaderboard order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name
	}
	return names
}

// GetPolicy resolves a policy name.
func GetPolicy(name string) (Policy, error) {
	for _, p := range policies {
		if p.Name == name {
			return p, nil
		}
	}
	known := PolicyNames()
	sort.Strings(known)
	return Policy{}, fmt.Errorf("tournament: unknown policy %q (have %v)", name, known)
}
