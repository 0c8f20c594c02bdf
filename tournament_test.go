package davide

// E24 — the strategy tournament: every registered admission policy
// swept across clean transport, the gateway chaos presets and the
// scenario registry at the E19/E22 reference geometry, scored and
// ranked into the committed tournament.json / STRATEGY_LEDGER.md.
// Asserted invariants:
//
//   - anchoring: the tournament's fifo and power cells equal the
//     pre-existing E19 (clean/chaos) and E22 (scenario) figures
//     EXACTLY — the strategy seam refactor moved the built-in
//     disciplines behind the Strategy interface without changing a
//     single admission decision;
//   - determinism: every policy, old and new, reproduces bit-identical
//     cells from the same seed (the tournament's replay contract);
//   - ranking sanity: power-aware admission beats the power-blind
//     baselines on cap holding, and every registered policy appears
//     exactly once in the standings;
//   - artifact closure: report JSON round-trips byte-identically,
//     ledger regeneration is idempotent and preserves the curated
//     findings section, and the committed STRATEGY_LEDGER.md is
//     exactly what the committed tournament.json renders to (the CI
//     no-diff rule, enforced here too).

import (
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"davide/internal/fleet"
	"davide/internal/scenario"
	"davide/internal/stats"
	"davide/internal/tournament"
)

const e24Seed = 7

// e24Cells runs a tournament subset and indexes its cells.
func e24Cells(t *testing.T, pols, axes []string) map[[2]string]tournament.Cell {
	t.Helper()
	rep, err := tournament.Run(tournament.Config{Seed: e24Seed, Policies: pols, Axes: axes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]string]tournament.Cell, len(rep.Cells))
	for _, c := range rep.Cells {
		out[[2]string{c.Policy, c.Axis}] = c
	}
	return out
}

// e24WaitP95 computes the tournament's p95 wait from a run's start
// times against the submit times the controller saw.
func e24WaitP95(t *testing.T, starts map[int]float64, submits map[int]float64) float64 {
	t.Helper()
	waits := make([]float64, 0, len(starts))
	for id, s := range starts {
		waits = append(waits, s-submits[id])
	}
	sort.Float64s(waits)
	p95, err := stats.Percentile(waits, 95)
	if err != nil {
		t.Fatal(err)
	}
	return p95
}

func TestE24Tournament(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament suite: skipped in -short")
	}

	t.Run("anchors-e19", func(t *testing.T) {
		// The fifo and power tournament cells on the live axes must equal
		// the E19 suite's figures exactly: same geometry, same seed, and
		// strategies resolved from the same registry names.
		cells := e24Cells(t,
			[]string{"fifo", "power"},
			[]string{"clean", "chaos/" + fleet.ChaosLossyRack})
		refs := []struct {
			policy string
			axis   string
			react  bool
			preset string
		}{
			{"fifo", "clean", false, ""},
			{"power", "clean", true, ""},
			{"fifo", "chaos/" + fleet.ChaosLossyRack, false, fleet.ChaosLossyRack},
			{"power", "chaos/" + fleet.ChaosLossyRack, true, fleet.ChaosLossyRack},
		}
		for _, ref := range refs {
			res := e19Run(t, ref.policy, ref.react, ref.preset, e24Seed)
			cell, ok := cells[[2]string{ref.policy, ref.axis}]
			if !ok {
				t.Fatalf("no cell for %s on %s", ref.policy, ref.axis)
			}
			wantEnergyErr := 0.0
			if res.EnergyJ > 0 {
				wantEnergyErr = 100 * math.Abs(res.MeasuredEnergyJ-res.EnergyJ) / res.EnergyJ
			}
			_, work := e19Workload(t, e24Seed)
			submits := make(map[int]float64, len(work))
			for _, j := range work {
				submits[j.ID] = j.SubmitAt
			}
			if cell.MaxOverPct != res.MaxOverPct ||
				cell.CapViolationSec != res.CapViolationSec ||
				cell.MeanWaitS != res.MeanWait ||
				cell.MakespanS != res.Makespan ||
				cell.EnergyErrPct != wantEnergyErr ||
				cell.P95WaitS != e24WaitP95(t, res.Starts, submits) ||
				cell.RefusedAdmissions != res.RefusedAdmissions ||
				cell.StaleReads != res.StaleReads {
				t.Errorf("%s/%s diverged from E19:\ncell %+v\nE19  over=%v viol=%v wait=%v makespan=%v",
					ref.policy, ref.axis, cell, res.MaxOverPct, res.CapViolationSec, res.MeanWait, res.Makespan)
			}
		}
	})

	t.Run("anchors-e22", func(t *testing.T) {
		axis := "scenario/" + scenario.ScenarioDRRamp
		cells := e24Cells(t, []string{"fifo", "power"}, []string{axis})
		for _, ref := range []struct {
			policy string
			react  bool
		}{
			{"fifo", false},
			{"power", true},
		} {
			res := e22Run(t, scenario.ScenarioDRRamp, ref.policy, ref.react, e24Seed)
			cell, ok := cells[[2]string{ref.policy, axis}]
			if !ok {
				t.Fatalf("no cell for %s on %s", ref.policy, axis)
			}
			if cell.MaxOverPct != res.MaxOverPct ||
				cell.CapViolationSec != res.CapViolationSec ||
				cell.MeanWaitS != res.MeanWait ||
				cell.MakespanS != res.Makespan ||
				cell.EnergyErrPct != res.EnergyErrPct() ||
				float64(cell.BrownoutS) != float64(res.BrownoutTicks)*15 {
				t.Errorf("%s/%s diverged from E22:\ncell %+v\nE22  over=%v viol=%v wait=%v energy-err=%v",
					ref.policy, axis, cell, res.MaxOverPct, res.CapViolationSec, res.MeanWait, res.EnergyErrPct())
			}
		}
	})

	t.Run("deterministic-per-policy", func(t *testing.T) {
		// Every policy — the transplanted built-ins and the new
		// disciplines — must replay bit-identically from the same seed,
		// including on an axis that stresses dispatch with chaos.
		pols := tournament.PolicyNames()
		axes := []string{"clean", "chaos/" + fleet.ChaosSplitBrain}
		a := e24Cells(t, pols, axes)
		b := e24Cells(t, pols, axes)
		if len(a) != len(pols)*len(axes) {
			t.Fatalf("got %d cells, want %d", len(a), len(pols)*len(axes))
		}
		for key, ca := range a {
			cb, ok := b[key]
			if !ok {
				t.Fatalf("replay lost cell %v", key)
			}
			if ca != cb {
				t.Errorf("%s on %s not bit-identical across replays:\n%+v\n%+v", key[0], key[1], ca, cb)
			}
		}
	})

	t.Run("ranking-sanity", func(t *testing.T) {
		rep, err := tournament.Run(tournament.Config{
			Seed: e24Seed,
			Axes: []string{"clean"},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Standings) != len(tournament.PolicyNames()) {
			t.Fatalf("%d standings for %d policies", len(rep.Standings), len(tournament.PolicyNames()))
		}
		seen := map[string]bool{}
		for _, st := range rep.Standings {
			if seen[st.Policy] {
				t.Errorf("policy %s ranked twice", st.Policy)
			}
			seen[st.Policy] = true
		}
		// The paper's core claim must survive the strategy seam: every
		// power-aware policy holds the cap tighter than every power-blind
		// baseline on the clean axis.
		worstAware, bestBlind := 0.0, math.Inf(1)
		for _, c := range rep.Cells {
			var pol tournament.Policy
			for _, p := range tournament.Policies() {
				if p.Name == c.Policy {
					pol = p
				}
			}
			if pol.PowerAware() {
				if c.MaxOverPct > worstAware {
					worstAware = c.MaxOverPct
				}
			} else if c.MaxOverPct < bestBlind {
				bestBlind = c.MaxOverPct
			}
		}
		if worstAware >= bestBlind {
			t.Errorf("worst power-aware overshoot %.2f%% not below best power-blind %.2f%%", worstAware, bestBlind)
		}
		if bestBlind < 15 {
			t.Errorf("best power-blind overshoot %.2f%% — workload no longer oversubscribes the cap", bestBlind)
		}
	})

	t.Run("artifacts", func(t *testing.T) {
		rep, err := tournament.Run(tournament.Config{
			Seed:     e24Seed,
			Policies: []string{"fifo", "power"},
			Axes:     []string{"clean"},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// JSON round-trip is byte-stable.
		data, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := tournament.DecodeJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		data2, err := back.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Error("report JSON does not round-trip byte-identically")
		}
		// Ledger regeneration is idempotent and preserves curated text.
		const curated = "The weighted policy wins because starvation is priced, not policed."
		first := tournament.RenderLedger(rep, "")
		edited := strings.Replace(first,
			"_No curated findings yet. Edit this section — it survives regeneration._",
			curated, 1)
		second := tournament.RenderLedger(rep, edited)
		if !strings.Contains(second, curated) {
			t.Error("regeneration lost the curated findings section")
		}
		if third := tournament.RenderLedger(rep, second); third != second {
			t.Error("ledger regeneration is not idempotent")
		}
	})

	t.Run("committed-ledger-regenerates", func(t *testing.T) {
		// The committed STRATEGY_LEDGER.md must be exactly what the
		// committed tournament.json renders to — the CI no-diff rule.
		js, err := os.ReadFile("tournament.json")
		if err != nil {
			t.Skipf("no committed tournament.json: %v", err)
		}
		ledger, err := os.ReadFile("STRATEGY_LEDGER.md")
		if err != nil {
			t.Fatalf("tournament.json committed without STRATEGY_LEDGER.md: %v", err)
		}
		rep, err := tournament.DecodeJSON(js)
		if err != nil {
			t.Fatal(err)
		}
		if got := tournament.RenderLedger(rep, string(ledger)); got != string(ledger) {
			t.Error("committed STRATEGY_LEDGER.md is stale: regenerate with " +
				"`go run ./cmd/davide-sim -tournament -tournament-from tournament.json -ledger STRATEGY_LEDGER.md`")
		}
		if len(rep.Standings) < 6 {
			t.Errorf("committed tournament ranks %d policies, want >= 6", len(rep.Standings))
		}
		wantAxes := len(tournament.AxisNames())
		if len(rep.Config.Axes) != wantAxes {
			t.Errorf("committed tournament covers %d axes, want %d", len(rep.Config.Axes), wantAxes)
		}
	})
}
