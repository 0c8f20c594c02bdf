package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"davide/internal/chaos"
)

// Named chaos scenarios for fleet replays — the fault environments the
// E18 soak suite (and `davide-sim -chaos <preset>`) replays through.
// Each preset documents the MaxEnergyErrPct bound its injected loss
// pattern must respect on scheduled pilot signals (piecewise-constant
// power, where a lost batch's span is bridged by the last power level,
// so the error a hole can cause is bounded by the power steps inside
// it). The bounds are asserted by the E18 suite; see
// DESIGN.md §6.
const (
	// ChaosLossyRack models a congested rack switch: steady loss,
	// duplication, reordering and latency jitter on every gateway.
	ChaosLossyRack = "lossy-rack"
	// ChaosFlappingGateway models BeagleBones that crash and reboot
	// mid-stream: injected session crashes with cursor resume, plus
	// light loss and reordering.
	ChaosFlappingGateway = "flapping-gateway"
	// ChaosSplitBrain models a partitioned fabric: odd-numbered nodes
	// lose connectivity in repeating windows (a third of their
	// publishes), even nodes see only trace loss.
	ChaosSplitBrain = "split-brain"
	// ChaosCorruptWire models a flaky physical layer: payload
	// corruption (always detected, never silently ingested) with light
	// loss and duplication.
	ChaosCorruptWire = "corrupt-wire"
	// ChaosBridgeFlap is a *bridge* preset (rack→spine uplinks, not
	// gateway links): it models flapping spine connectivity — periodic
	// uplink session crashes, which the bridge redials through, plus
	// light loss and duplication on the hop. The "node" key of the plan
	// is the rack index. Apply it via PlaneSpec.BridgeFaults (or
	// `davide-sim -racks N -chaos bridge-flap`); it never appears in
	// ChaosPresetNames, so gateway-side suites cannot pick it up by
	// iteration.
	ChaosBridgeFlap = "bridge-flap"
)

// chaosPreset couples a plan constructor with the preset's documented
// MaxEnergyErrPct bound (the E18 invariant), so a new preset cannot be
// registered without declaring its bound.
type chaosPreset struct {
	mk          func(seed int64) *chaos.Plan
	errBoundPct float64
	// bridge marks presets meant for rack→spine uplinks (plan keyed by
	// rack index) rather than per-gateway links (keyed by node ID).
	bridge bool
}

// chaosPresets maps preset names to their definitions.
var chaosPresets = map[string]chaosPreset{
	ChaosLossyRack: {errBoundPct: 3, mk: func(seed int64) *chaos.Plan {
		return &chaos.Plan{Seed: seed, Default: chaos.Spec{
			Drop: 0.04, Dup: 0.02, Hold: 0.03, HoldSpan: 4,
			DelayPct: 0.10, MaxDelay: 500 * time.Microsecond,
		}}
	}},
	ChaosFlappingGateway: {errBoundPct: 2, mk: func(seed int64) *chaos.Plan {
		return &chaos.Plan{Seed: seed, Default: chaos.Spec{
			Drop: 0.01, Hold: 0.02, HoldSpan: 3, CrashEvery: 40,
		}}
	}},
	ChaosSplitBrain: {errBoundPct: 10, mk: func(seed int64) *chaos.Plan {
		clean := chaos.Spec{Drop: 0.005}
		cut := chaos.Spec{Drop: 0.005, PartitionEvery: 24, PartitionLen: 8}
		return &chaos.Plan{
			Seed:    seed,
			Default: clean,
			NodeSpec: func(node int) (chaos.Spec, bool) {
				if node%2 == 1 {
					return cut, true
				}
				return chaos.Spec{}, false
			},
		}
	}},
	ChaosCorruptWire: {errBoundPct: 3, mk: func(seed int64) *chaos.Plan {
		return &chaos.Plan{Seed: seed, Default: chaos.Spec{
			Corrupt: 0.05, Drop: 0.01, Dup: 0.01,
		}}
	}},
	// The bridge-flap bound is looser than the raw 1% batch loss
	// suggests because a dropped *uplink* batch holes the spine copy for
	// a whole batch span (batch/rate seconds); on piecewise-constant
	// pilot signals the hole is bridged by the last power level, so 3%
	// holds for the E18-style replay geometry (64-sample batches, steps
	// much longer than a batch). Crashes cost nothing: the bridge
	// redials and retries the same message.
	ChaosBridgeFlap: {errBoundPct: 3, bridge: true, mk: func(seed int64) *chaos.Plan {
		return &chaos.Plan{Seed: seed, Default: chaos.Spec{
			Drop: 0.01, Dup: 0.01, CrashEvery: 30,
		}}
	}},
}

// lookupChaosPreset resolves a preset name or reports, per registry,
// what was checked — so a typo'd stack member fails up front with the
// gateway and bridge registries both named (a stacked spec must not
// fail late, mid-run).
func lookupChaosPreset(name string) (chaosPreset, error) {
	p, ok := chaosPresets[name]
	if !ok {
		return chaosPreset{}, fmt.Errorf(
			"fleet: unknown chaos preset %q: not in the gateway registry (%s) nor the bridge registry (%s)",
			name, strings.Join(ChaosPresetNames(), ", "), strings.Join(ChaosBridgePresetNames(), ", "))
	}
	return p, nil
}

// IsBridgePreset reports whether the named preset targets rack→spine
// uplinks (plan keyed by rack index) instead of per-gateway links.
// Unknown names report false; resolve them with ChaosPreset for the
// real error.
func IsBridgePreset(name string) bool {
	return chaosPresets[name].bridge
}

// ChaosErrBound returns the documented MaxEnergyErrPct bound for a
// preset's replays of scheduled pilot signals (the E18 invariant).
func ChaosErrBound(name string) (float64, error) {
	p, err := lookupChaosPreset(name)
	if err != nil {
		return 0, err
	}
	return p.errBoundPct, nil
}

// ChaosPresetNames lists the available *gateway* presets, sorted. The
// E18 suite iterates this list over per-gateway fault plans, so bridge
// presets (keyed by rack, applied on uplinks) are listed separately by
// ChaosBridgePresetNames.
func ChaosPresetNames() []string {
	names := make([]string, 0, len(chaosPresets))
	for n, p := range chaosPresets {
		if !p.bridge {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ChaosBridgePresetNames lists the available bridge (uplink) presets,
// sorted.
func ChaosBridgePresetNames() []string {
	var names []string
	for n, p := range chaosPresets {
		if p.bridge {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ChaosPreset builds the named fault plan with the given seed: a
// composite of one always-on phase, which faults every QoS-0 packet as
// the preset's plan standing alone would. The same (name, seed) pair
// injects an identical fault schedule on every run.
func ChaosPreset(name string, seed int64) (*chaos.Composite, error) {
	p, err := lookupChaosPreset(name)
	if err != nil {
		return nil, err
	}
	return &chaos.Composite{Phases: []chaos.Phase{{Name: name, Plan: p.mk(seed)}}}, nil
}

// ChaosPhase names one windowed constituent of a composed chaos plan:
// a gateway preset active while payload virtual time t satisfies
// T0 <= t < T1 seconds (a zero window covers the whole run).
type ChaosPhase struct {
	Preset string
	T0, T1 float64
}

// ChaosStack composes gateway presets into one phase-windowed fault
// plan (see chaos.Composite): every preset name is validated up front
// against both registries, bridge presets are rejected (uplink plans
// are keyed by rack and cannot join a per-gateway stack), and each
// phase's plan is seeded with the same base seed a standalone
// ChaosPreset run would use — so a phase's ledger over its window
// matches the standalone preset's over the same packets exactly. A
// single always-on phase is the same composite ChaosPreset builds.
func ChaosStack(seed int64, phases ...ChaosPhase) (*chaos.Composite, error) {
	if len(phases) == 0 {
		return nil, errors.New("fleet: empty chaos stack")
	}
	comp := &chaos.Composite{Phases: make([]chaos.Phase, len(phases))}
	for i, ph := range phases {
		p, err := lookupChaosPreset(ph.Preset)
		if err != nil {
			return nil, err
		}
		if p.bridge {
			return nil, fmt.Errorf("fleet: bridge preset %q cannot join a gateway chaos stack (apply it via PlaneSpec.BridgeFaults)", ph.Preset)
		}
		comp.Phases[i] = chaos.Phase{Name: ph.Preset, Plan: p.mk(seed), T0: ph.T0, T1: ph.T1}
	}
	if err := comp.Validate(); err != nil {
		return nil, err
	}
	return comp, nil
}
