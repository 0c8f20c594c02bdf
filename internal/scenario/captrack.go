package scenario

import (
	"errors"
	"fmt"

	"davide/internal/sched"
)

// Post-hoc cap tracking: replay the scenario's cap trajectory against
// the measured rack power left behind in the tsdb and report how well
// the machine held the moving cap, per report phase. This is the
// overlay `davide-sim -scenario` prints — it needs only the store, not the run's
// in-memory controller, so it works on any telemetry the plane kept.

// PowerSource is the slice of the telemetry store CapTrack reads
// (tsdb.DB satisfies it).
type PowerSource interface {
	MeanPower(node int, t0, t1 float64) (float64, error)
}

// PhaseOvershoot reports one report phase's cap tracking.
type PhaseOvershoot struct {
	Phase  string
	T0, T1 float64
	// Ticks is the number of tick windows scored in the phase;
	// OverTicks how many of them had measured power above the tracked
	// cap.
	Ticks     int
	OverTicks int
	// MaxOverW / MaxOverPct are the worst overshoot above the tracked
	// cap (percent relative to the cap of that moment); MeanOverW is
	// the mean positive overshoot over all phase ticks.
	MaxOverW   float64
	MaxOverPct float64
	MeanOverW  float64
	// MeanCapW is the mean tracked cap across the phase — the overlay
	// baseline.
	MeanCapW float64
	// MeanPowerW is the mean measured machine power across the phase.
	MeanPowerW float64
}

// CapTrack reconstructs the ramp-limited effective-cap trajectory the
// controller tracked (its tracker step, rate limit, tick grid and the
// machine idle floor floorW) and scores the measured machine power from
// the store against it, per report phase. Nodes whose window has no
// data simply contribute nothing — CapTrack is a post-hoc query and
// must work on lossy telemetry.
func CapTrack(src PowerSource, nodes int, nominalCapW, floorW, tickS, horizon float64, sc *Scenario) ([]PhaseOvershoot, error) {
	if src == nil {
		return nil, errors.New("scenario: nil power source")
	}
	if nodes <= 0 || nominalCapW <= 0 || tickS <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("scenario: cap-track needs positive nodes/cap/tick/horizon (got %d/%g/%g/%g)",
			nodes, nominalCapW, tickS, horizon)
	}
	phases := sc.ReportPhases(horizon)
	out := make([]PhaseOvershoot, len(phases))
	for i, ph := range phases {
		out[i] = PhaseOvershoot{Phase: ph.Name, T0: ph.T0, T1: ph.T1}
	}

	capNow := nominalCapW
	for t0 := 0.0; t0 < horizon; t0 += tickS {
		capNow = sched.TrackCap(capNow, nominalCapW*sc.Cap.FracAt(t0), floorW, sc.RampWPerS, tickS)

		t1 := t0 + tickS
		measured := 0.0
		for n := 0; n < nodes; n++ {
			if v, err := src.MeanPower(n, t0, t1); err == nil {
				measured += v
			}
		}
		if measured == 0 {
			continue // nothing stored for this window at all
		}
		over := measured - capNow
		for i := range out {
			if t0 < out[i].T0 || t0 >= out[i].T1 {
				continue
			}
			o := &out[i]
			o.Ticks++
			o.MeanCapW += capNow
			o.MeanPowerW += measured
			if over > 0 {
				o.OverTicks++
				o.MeanOverW += over
				if over > o.MaxOverW {
					o.MaxOverW = over
					o.MaxOverPct = 100 * over / capNow
				}
			}
		}
	}
	for i := range out {
		if out[i].Ticks > 0 {
			out[i].MeanCapW /= float64(out[i].Ticks)
			out[i].MeanPowerW /= float64(out[i].Ticks)
			out[i].MeanOverW /= float64(out[i].Ticks)
		}
	}
	return out, nil
}
