package chaos_test

import (
	"reflect"
	"testing"

	"davide/internal/chaos"
	"davide/internal/fleet"
	"davide/internal/mqtt"
)

// unreadable stands in a stream for a payload whose batch frame header
// cannot be read, so it carries no payload time.
const unreadable = -1

// driveSeqs pushes one publish per stream entry through any link: a
// batch whose payload time is seq seconds, or an unreadable payload.
// It returns the delivered payloads in order, as the delivery schedule.
func driveSeqs(t *testing.T, l mqtt.Link, seqs []int, samplesPer int) []string {
	t.Helper()
	var delivered []string
	deliver := func(m mqtt.Message) error {
		delivered = append(delivered, string(m.Payload))
		return nil
	}
	for _, seq := range seqs {
		payload := []byte("not a batch frame")
		if seq != unreadable {
			payload = payloadFor(t, seq, samplesPer)
		}
		err := l.Send(mqtt.Message{Topic: "davide/node01/power", Payload: payload}, deliver)
		if err != nil && err != chaos.ErrCrash {
			t.Fatal(err)
		}
	}
	if err := l.Flush(deliver); err != nil {
		t.Fatal(err)
	}
	return delivered
}

func seqRange(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestCompositeDisjointEqualsStandalone is the headline compose
// property: each phase's ledger equals — field for field — what the
// constituent plan would have produced standing alone against exactly
// the packet subsequence the phase owns, and the composite ledger is
// their exact sum. The first row has two disjoint windows. The others
// are the named presets, each a composite of one always-on phase: it
// owns the whole stream, the unreadable payload included, so its
// delivery schedule must also equal the standalone plan's in order.
func TestCompositeDisjointEqualsStandalone(t *testing.T) {
	const node, seed, n = 7, 42, 600
	// One payload with no readable time sits mid-stream.
	stream := append(append(seqRange(1, 101), unreadable), seqRange(101, n+1)...)

	type solo struct {
		plan *chaos.Plan
		seqs []int // the packets the phase owns
	}
	planA := &chaos.Plan{Seed: seed, Default: chaos.Spec{
		Drop: 0.05, Dup: 0.03, Hold: 0.04, HoldSpan: 3, CrashEvery: 50,
	}}
	planB := &chaos.Plan{Seed: seed, Default: chaos.Spec{
		Corrupt: 0.06, Drop: 0.02,
	}}
	type row struct {
		name string
		comp *chaos.Composite
		solo []solo // one per phase
		pass int64  // packets no phase claims
	}
	rows := []row{{
		name: "disjoint",
		comp: &chaos.Composite{Phases: []chaos.Phase{
			{Name: "a", Plan: planA, T0: 0, T1: 250},
			{Name: "b", Plan: planB, T0: 250, T1: 500},
		}},
		solo: []solo{
			{planA, seqRange(1, 250)},   // t in [0, 250)
			{planB, seqRange(250, 500)}, // t in [250, 500)
		},
		// t >= 500 and the unreadable payload pass through untouched.
		pass: n - 500 + 1 + 1,
	}}
	for _, name := range append(fleet.ChaosPresetNames(), fleet.ChaosBridgeFlap) {
		comp, err := fleet.ChaosPreset(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name, comp, []solo{{comp.Phases[0].Plan, stream}}, 0})
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cl, err := row.comp.BuildLink(node)
			if err != nil {
				t.Fatal(err)
			}
			sched := driveSeqs(t, cl, stream, 16)

			phases := cl.PhaseCounters()
			for i, want := range row.solo {
				link, err := want.plan.NewLink(node)
				if err != nil {
					t.Fatal(err)
				}
				soloSched := driveSeqs(t, link, want.seqs, 16)
				if !reflect.DeepEqual(phases[i], link.Counters()) {
					t.Errorf("phase %d ledger != standalone run over the same packets:\ncomposite: %+v\nstandalone: %+v",
						i, phases[i], link.Counters())
				}
				if len(row.solo) == 1 && !reflect.DeepEqual(sched, soloSched) {
					t.Errorf("one-phase composite delivered %d packets in another order than the standalone plan's %d",
						len(sched), len(soloSched))
				}
			}

			// Composite ledger == sum of constituents.
			var sum chaos.Counters
			for _, pc := range phases {
				sum.Add(pc)
			}
			if !reflect.DeepEqual(cl.Counters(), sum) {
				t.Errorf("composite ledger %+v != phase sum %+v", cl.Counters(), sum)
			}
			if got := cl.Passthrough(); got != row.pass {
				t.Errorf("Passthrough = %d, want %d", got, row.pass)
			}
			// Every offered packet is accounted exactly once: owned (Sent
			// or crashed by its single owner) or passed through.
			owned := sum.Sent + sum.Crashes
			if owned+cl.Passthrough() != int64(len(stream)) {
				t.Errorf("packet conservation: owned %d + passthrough %d != offered %d",
					owned, cl.Passthrough(), len(stream))
			}
		})
	}
}

// TestCompositeOverlapExclusionAndDeterminism stacks two always-on
// plans over overlapping windows: per-packet fault mutual exclusion
// must still hold (each packet has one owner, so ledger conservation
// identities hold per phase and in sum), and the same seed must give a
// bit-identical schedule and ledgers.
func TestCompositeOverlapExclusionAndDeterminism(t *testing.T) {
	const node, n = 3, 800
	build := func() *chaos.CompositeLink {
		comp := &chaos.Composite{
			Phases: []chaos.Phase{
				{Name: "lossy", Plan: &chaos.Plan{Seed: 9, Default: chaos.Spec{
					Drop: 0.06, Dup: 0.04, Hold: 0.05, HoldSpan: 4,
				}}},
				{Name: "corrupt", Plan: &chaos.Plan{Seed: 11, Default: chaos.Spec{
					Corrupt: 0.08, Drop: 0.02,
				}}, T0: 100, T1: 600},
			},
		}
		cl, err := comp.BuildLink(node)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	cl := build()
	sched1 := driveSeqs(t, cl, seqRange(1, n+1), 8)

	var sum chaos.Counters
	for i, pc := range cl.PhaseCounters() {
		sum.Add(pc)
		// Per-phase conservation: every Sent packet took exactly one
		// branch, and all holds were released by Flush. This is the
		// per-packet mutual-exclusion identity — it cannot hold if two
		// phases both faulted one packet.
		if pc.Held != pc.LateReleases+pc.FlushReleases {
			t.Errorf("phase %d: %d holds vs %d releases after Flush", i, pc.Held, pc.LateReleases+pc.FlushReleases)
		}
		wantDelivered := (pc.Sent - pc.Dropped - pc.Partitioned - pc.Held) +
			pc.Duplicated + pc.LateReleases + pc.FlushReleases
		if pc.Delivered != wantDelivered {
			t.Errorf("phase %d: Delivered = %d, want %d (one fault per packet)", i, pc.Delivered, wantDelivered)
		}
	}
	if sum.Sent+sum.Crashes+cl.Passthrough() != n {
		t.Errorf("ownership not exclusive-and-total: sent %d + crashes %d + passthrough %d != %d",
			sum.Sent, sum.Crashes, cl.Passthrough(), n)
	}
	if !reflect.DeepEqual(cl.Counters(), sum) {
		t.Errorf("composite ledger %+v != phase sum %+v", cl.Counters(), sum)
	}

	// Same seed, same schedule, same ledgers — bit-identical.
	cl2 := build()
	sched2 := driveSeqs(t, cl2, seqRange(1, n+1), 8)
	if !reflect.DeepEqual(sched1, sched2) {
		t.Error("same seed produced different delivery schedules")
	}
	if !reflect.DeepEqual(cl.Counters(), cl2.Counters()) {
		t.Errorf("same seed produced different ledgers:\n%+v\n%+v", cl.Counters(), cl2.Counters())
	}
	if !reflect.DeepEqual(cl.PhaseCounters(), cl2.PhaseCounters()) {
		t.Error("same seed produced different per-phase ledgers")
	}
}

// TestCompositeValidate pins the config errors.
func TestCompositeValidate(t *testing.T) {
	if err := (&chaos.Composite{}).Validate(); err == nil {
		t.Error("empty composite validated")
	}
	bad := &chaos.Composite{Phases: []chaos.Phase{{Name: "x", Plan: &chaos.Plan{}, T0: 10, T1: 10}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty window validated")
	}
	if err := (&chaos.Composite{Phases: []chaos.Phase{{Name: "nil"}}}).Validate(); err == nil {
		t.Error("nil phase plan validated")
	}
}

// TestCompositeSendAllocatesNothing pins pick's cost: routing a packet
// through one always-on phase, or through two overlapping phases (which
// reads the payload time), allocates nothing per Send.
func TestCompositeSendAllocatesNothing(t *testing.T) {
	drop := func(seed int64) *chaos.Plan {
		return &chaos.Plan{Seed: seed, Default: chaos.Spec{Drop: 0.3}}
	}
	for _, c := range []struct {
		name   string
		phases []chaos.Phase
	}{
		{"one always-on phase", []chaos.Phase{{Name: "a", Plan: drop(1)}}},
		{"two overlapping phases", []chaos.Phase{
			{Name: "a", Plan: drop(1)},
			{Name: "b", Plan: drop(2), T0: 1, T1: 1e6},
		}},
	} {
		cl, err := (&chaos.Composite{Phases: c.phases}).BuildLink(3)
		if err != nil {
			t.Fatal(err)
		}
		m := mqtt.Message{Topic: "davide/node03/power", Payload: payloadFor(t, 5, 16)}
		deliver := func(mqtt.Message) error { return nil }
		allocs := testing.AllocsPerRun(200, func() {
			if err := cl.Send(m, deliver); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/Send, want 0", c.name, allocs)
		}
		if sum := cl.Counters(); sum.Sent == 0 || sum.Dropped == 0 {
			t.Errorf("%s: no packet was routed to a phase: %+v", c.name, sum)
		}
	}
}
