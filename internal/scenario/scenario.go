// Package scenario is the deterministic, seeded scenario engine: it
// composes the workload-side and environment-side stresses a real
// grid-interactive datacenter sees — arrival-process shaping (diurnal
// sinusoid, MMPP bursts, weekend lull), dynamic power-cap trajectories
// (demand-response ramps, price/carbon step schedules), thermal events
// (coolant-inlet excursions driving DVFS throttling through
// internal/thermal), and phase-windowed composed chaos (existing
// presets stacked so faults strike *during* the transients) — into one
// named, reproducible configuration the live control plane runs under
// (core.RunScenario). Every named scenario documents the cap-overshoot
// and energy-error bound the E22 matrix asserts; see DESIGN.md §10.
//
// A Scenario is pure configuration: same scenario + same seed + same
// jobs ⇒ a bit-identical run. Nothing here reads wall clocks or global
// RNGs.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"davide/internal/chaos"
	"davide/internal/fleet"
)

// Phase names one report window [T0, T1) of the run, in virtual
// seconds — the granularity cap-overshoot is reported at (see
// core.PhaseOvershoot). Scenario phases are descriptive only; they do
// not alter the run.
type Phase struct {
	Name   string
	T0, T1 float64
}

// CapStep scales the nominal power cap by Frac while virtual time is
// in [T0, T1). Outside every step the cap target is the nominal cap.
type CapStep struct {
	T0, T1 float64
	Frac   float64
}

// CapTrajectory is a piecewise cap schedule in fractions of the
// nominal cap (so one trajectory serves any machine size).
type CapTrajectory struct {
	Steps []CapStep
}

// FracAt returns the cap fraction targeted at time t (1 outside every
// step; overlapping steps resolve to the first match).
func (ct *CapTrajectory) FracAt(t float64) float64 {
	if ct == nil {
		return 1
	}
	for _, s := range ct.Steps {
		if t >= s.T0 && t < s.T1 {
			return s.Frac
		}
	}
	return 1
}

// ThermalEvent raises the coolant-inlet reference by DeltaC degrees
// while virtual time is in [T0, T1) — a facility-water excursion.
// Overlapping events stack additively.
type ThermalEvent struct {
	T0, T1 float64
	DeltaC float64
}

// ChaosPhase activates a named gateway chaos preset while *payload*
// time is in [T0, T1) (zero window = whole run); phases compose via
// fleet.ChaosStack into one chaos.Composite.
type ChaosPhase struct {
	Preset string
	T0, T1 float64
}

// Scenario is one named, fully deterministic stress configuration.
type Scenario struct {
	Name string
	Desc string

	// Arrivals selects the arrival-process reshaping applied to the
	// workload's submit times ("" = leave the trace untouched; see
	// ArrivalKinds). ArrivalPeriodS is the modulation period (default
	// 1200 s).
	Arrivals       string
	ArrivalPeriodS float64

	// Cap, when non-nil, is the dynamic cap trajectory the controller
	// must track; RampWPerS is the tracking ramp-rate limit handed to
	// sched.ControllerConfig.CapRampWPerS (0 = jump).
	Cap       *CapTrajectory
	RampWPerS float64

	// Thermal events perturb measured power through DVFS throttling.
	Thermal []ThermalEvent

	// Chaos is the phase-windowed fault stack applied to the gateway
	// links.
	Chaos []ChaosPhase

	// BrownoutStaleFrac arms the controller's stale-telemetry brownout
	// mode (0 = disarmed); see sched.ControllerConfig.
	BrownoutStaleFrac float64

	// Phases are the named report windows for cap tracking; empty
	// means one whole-run window.
	Phases []Phase

	// MaxOverPct is the documented worst cap overshoot (percent over
	// the *tracked* cap) a power-aware run of this scenario may show;
	// MaxEnergyErrPct bounds the measured-vs-true energy disagreement.
	// Both are asserted by the E22 matrix.
	MaxOverPct      float64
	MaxEnergyErrPct float64
}

// Validate reports whether the scenario is usable.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return errors.New("scenario: unnamed scenario")
	}
	if sc.Arrivals != "" {
		if _, err := rateFn(sc.Arrivals, sc.arrivalPeriod()); err != nil {
			return err
		}
	}
	if sc.Cap != nil {
		for i, s := range sc.Cap.Steps {
			if s.T1 <= s.T0 || s.T0 < 0 {
				return fmt.Errorf("scenario: %s cap step %d window [%g, %g) invalid", sc.Name, i, s.T0, s.T1)
			}
			if s.Frac <= 0 || s.Frac > 1.5 {
				return fmt.Errorf("scenario: %s cap step %d fraction %g out of (0, 1.5]", sc.Name, i, s.Frac)
			}
		}
	}
	for i, ev := range sc.Thermal {
		if ev.T1 <= ev.T0 || ev.T0 < 0 {
			return fmt.Errorf("scenario: %s thermal event %d window [%g, %g) invalid", sc.Name, i, ev.T0, ev.T1)
		}
		if ev.DeltaC <= 0 {
			return fmt.Errorf("scenario: %s thermal event %d raises coolant by %g °C (need > 0)", sc.Name, i, ev.DeltaC)
		}
	}
	if sc.BrownoutStaleFrac < 0 || sc.BrownoutStaleFrac > 1 {
		return fmt.Errorf("scenario: %s BrownoutStaleFrac %g out of [0, 1]", sc.Name, sc.BrownoutStaleFrac)
	}
	for i, ph := range sc.Phases {
		if ph.T1 <= ph.T0 {
			return fmt.Errorf("scenario: %s phase %d (%s) window [%g, %g) invalid", sc.Name, i, ph.Name, ph.T0, ph.T1)
		}
	}
	// Chaos preset names are validated by BuildChaos against the fleet
	// registries (which own the name space); do it now so a bad name
	// fails at Validate time, not mid-run.
	if _, err := sc.BuildChaos(1); err != nil {
		return err
	}
	return nil
}

func (sc *Scenario) arrivalPeriod() float64 {
	if sc.ArrivalPeriodS > 0 {
		return sc.ArrivalPeriodS
	}
	return 1200
}

// CapSchedule returns the controller cap schedule for a machine with
// the given nominal cap, or nil when the scenario's cap is static.
func (sc *Scenario) CapSchedule(nominalCapW float64) func(t float64) float64 {
	if sc.Cap == nil {
		return nil
	}
	traj := sc.Cap
	return func(t float64) float64 { return nominalCapW * traj.FracAt(t) }
}

// BuildChaos composes the scenario's chaos phases into one composite
// (nil when the scenario injects no faults). Preset names are checked
// against both fleet registries up front.
func (sc *Scenario) BuildChaos(seed int64) (*chaos.Composite, error) {
	if len(sc.Chaos) == 0 {
		return nil, nil
	}
	phases := make([]fleet.ChaosPhase, len(sc.Chaos))
	for i, cp := range sc.Chaos {
		phases[i] = fleet.ChaosPhase{Preset: cp.Preset, T0: cp.T0, T1: cp.T1}
	}
	return fleet.ChaosStack(seed, phases...)
}

// ReportPhases returns the scenario's named report windows, or one
// open-ended whole-run window when none are declared.
func (sc *Scenario) ReportPhases() []Phase {
	if len(sc.Phases) > 0 {
		return sc.Phases
	}
	return []Phase{{Name: "run", T0: 0, T1: math.Inf(1)}}
}
