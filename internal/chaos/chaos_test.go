package chaos_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"davide/internal/chaos"
	"davide/internal/gateway"
	"davide/internal/mqtt"
)

// payloadFor builds a decodable binary batch payload of n samples whose
// T0 advances with seq, like a gateway window stream.
func payloadFor(t *testing.T, seq, n int) []byte {
	t.Helper()
	b := gateway.Batch{Node: 1, T0: float64(seq), Dt: 0.02}
	for i := 0; i < n; i++ {
		b.Samples = append(b.Samples, 360+float64(i%7))
	}
	p, err := b.AppendEncode(nil, gateway.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drive pushes n sequential batch publishes through the link and
// returns the delivered payload sizes in order (a cheap fingerprint of
// the delivery schedule).
func drive(t *testing.T, l *chaos.Link, n, samplesPer int) []int {
	t.Helper()
	var wire []int
	deliver := func(m mqtt.Message) error {
		wire = append(wire, len(m.Payload))
		return nil
	}
	for i := 1; i <= n; i++ {
		err := l.Send(mqtt.Message{Topic: "davide/node01/power", Payload: payloadFor(t, i, samplesPer)}, deliver)
		if err != nil && !errors.Is(err, chaos.ErrCrash) {
			t.Fatal(err)
		}
	}
	if err := l.Flush(deliver); err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestLinkDeterminism(t *testing.T) {
	spec := chaos.Spec{
		Drop: 0.1, Dup: 0.05, Corrupt: 0.05, Hold: 0.1, HoldSpan: 3,
		PartitionEvery: 50, PartitionLen: 10, CrashEvery: 33,
	}
	run := func() (chaos.Counters, []int) {
		l, err := chaos.NewLink(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		wire := drive(t, l, 500, 16)
		return l.Counters(), wire
	}
	c1, w1 := run()
	c2, w2 := run()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed, different counters:\n%+v\n%+v", c1, c2)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed, different delivery schedule")
	}
	// A different seed must produce a different schedule.
	l3, err := chaos.NewLink(spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, l3, 500, 16)
	if reflect.DeepEqual(c1, l3.Counters()) {
		t.Fatal("different seeds produced identical counters (suspicious)")
	}

	// Ledger arithmetic: every sent packet is accounted exactly once,
	// and the wire saw sent - dropped - partitioned + duplicates.
	if got := c1.Sent; got != 500-c1.Crashes {
		t.Fatalf("Sent = %d, want %d (500 minus %d crashes)", got, 500-c1.Crashes, c1.Crashes)
	}
	wantWire := c1.Sent - c1.Dropped - c1.Partitioned + c1.Duplicated
	if int64(len(w1)) != wantWire || c1.Delivered != wantWire {
		t.Fatalf("wire packets = %d, Delivered = %d, want %d", len(w1), c1.Delivered, wantWire)
	}
	if c1.LateReleases+c1.FlushReleases != c1.Held {
		t.Fatalf("releases %d+%d != held %d", c1.LateReleases, c1.FlushReleases, c1.Held)
	}
	if c1.SamplesLost != 16*c1.Lost() {
		t.Fatalf("SamplesLost = %d, want %d", c1.SamplesLost, 16*c1.Lost())
	}
	if c1.SamplesDuplicated != 16*c1.Duplicated {
		t.Fatalf("SamplesDuplicated = %d, want %d", c1.SamplesDuplicated, 16*c1.Duplicated)
	}
	for _, c := range []chaos.Counters{c1} {
		if c.Dropped == 0 || c.Duplicated == 0 || c.Corrupted == 0 || c.Held == 0 || c.Partitioned == 0 || c.Crashes == 0 {
			t.Fatalf("expected every fault class to trigger over 500 packets: %+v", c)
		}
	}
}

func TestLinkCorruptionIsAlwaysDetected(t *testing.T) {
	l, err := chaos.NewLink(chaos.Spec{Corrupt: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		var delivered []byte
		deliver := func(m mqtt.Message) error {
			delivered = append([]byte(nil), m.Payload...)
			return nil
		}
		payload := payloadFor(t, i, []int{1, 32, 512}[i%3]) // alternate batch sizes
		if err := l.Send(mqtt.Message{Topic: "t", Payload: payload}, deliver); err != nil {
			t.Fatal(err)
		}
		if delivered == nil {
			t.Fatal("corrupt packet was not delivered")
		}
		if _, err := gateway.DecodeBatch(delivered); err == nil {
			t.Fatalf("corrupted payload %d still decodes — silent data corruption", i)
		}
	}
	if c := l.Counters(); c.Corrupted != 50 {
		t.Fatalf("Corrupted = %d, want 50", c.Corrupted)
	}
}

func TestLinkCrashSchedule(t *testing.T) {
	l, err := chaos.NewLink(chaos.Spec{CrashEvery: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(mqtt.Message) error { return nil }
	var crashes []int
	for i := 1; i <= 9; i++ {
		err := l.Send(mqtt.Message{Topic: "t", Payload: []byte("x")}, deliver)
		if errors.Is(err, chaos.ErrCrash) {
			crashes = append(crashes, i)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{3, 6, 9}; !reflect.DeepEqual(crashes, want) {
		t.Fatalf("crashes at %v, want %v", crashes, want)
	}
}

func TestLinkHoldReleaseClassification(t *testing.T) {
	// Hold=1 would hold everything; instead script it: a spec with only
	// Hold faults and probability 1 holds every packet, so releases can
	// only be triggered by later holds aging out — each released packet
	// then has nothing newer delivered before it: all flush releases.
	l, err := chaos.NewLink(chaos.Spec{Hold: 1, HoldSpan: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(mqtt.Message) error { return nil }
	for i := 1; i <= 6; i++ {
		if err := l.Send(mqtt.Message{Topic: "t", Payload: payloadFor(t, i, 4)}, deliver); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(deliver); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Held != 6 || c.FlushReleases != 6 || c.LateReleases != 0 {
		t.Fatalf("all-held stream must release in order: %+v", c)
	}

	// Now interleave: hold only sometimes; any release after a newer
	// delivery must be late.
	l2, err := chaos.NewLink(chaos.Spec{Hold: 0.5, HoldSpan: 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := l2.Send(mqtt.Message{Topic: "t", Payload: payloadFor(t, i, 4)}, deliver); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Flush(deliver); err != nil {
		t.Fatal(err)
	}
	c2 := l2.Counters()
	if c2.LateReleases == 0 {
		t.Fatalf("mixed stream produced no late releases: %+v", c2)
	}
	if c2.LateReleases+c2.FlushReleases != c2.Held {
		t.Fatalf("release accounting broken: %+v", c2)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []chaos.Spec{
		{Drop: -0.1},
		{Drop: 1.2},
		{Drop: 0.5, Dup: 0.3, Corrupt: 0.2, Hold: 0.1}, // sums to 1.1
		{CrashEvery: 1},
		{CrashEvery: -2},
		{PartitionEvery: 5, PartitionLen: 5},
		{PartitionEvery: -1},
		{PartitionEvery: 24}, // half-configured: inert, must be rejected
		{PartitionLen: 8},
		{MaxDelay: -1},
		{DelayPct: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) passed validation", i, s)
		}
		if _, err := chaos.NewLink(s, 1); err == nil {
			t.Errorf("NewLink accepted bad spec %d", i)
		}
	}
	good := chaos.Spec{Drop: 0.3, Dup: 0.3, Corrupt: 0.2, Hold: 0.2, CrashEvery: 2, PartitionEvery: 10, PartitionLen: 9}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	if (chaos.Spec{}).Active() {
		t.Error("zero spec reports Active")
	}
	if !good.Active() {
		t.Error("good spec reports inactive")
	}
}

// TestCountersAddMinusCoverAllFields locks the hand-written field lists
// in Add and Minus to the Counters struct: a field added to Counters
// but missed in either list makes this fail.
func TestCountersAddMinusCoverAllFields(t *testing.T) {
	var c chaos.Counters
	rv := reflect.ValueOf(&c).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(int64(i + 1))
	}
	if d := c.Minus(c); d != (chaos.Counters{}) {
		t.Fatalf("Minus(c, c) = %+v, want zero (field missing from Minus)", d)
	}
	var sum chaos.Counters
	sum.Add(c)
	if sum != c {
		t.Fatalf("Add from zero = %+v, want %+v (field missing from Add)", sum, c)
	}
}

func TestPlanPerNodeSpecsAndSeeds(t *testing.T) {
	cut := chaos.Spec{PartitionEvery: 10, PartitionLen: 5}
	plan := &chaos.Plan{
		Seed:    11,
		Default: chaos.Spec{Drop: 0.5},
		NodeSpec: func(node int) (chaos.Spec, bool) {
			if node%2 == 1 {
				return cut, true
			}
			return chaos.Spec{}, false
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := plan.SpecFor(3); got.PartitionEvery != 10 {
		t.Fatalf("odd node got %+v", got)
	}
	if got := plan.SpecFor(2); got.Drop != 0.5 {
		t.Fatalf("even node got %+v", got)
	}
	deliver := func(mqtt.Message) error { return nil }
	counters := map[int]chaos.Counters{}
	for _, node := range []int{0, 1, 2, 3} {
		l, err := plan.NewLink(node)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 100; i++ {
			if err := l.Send(mqtt.Message{Topic: fmt.Sprintf("n%d", node), Payload: []byte("p")}, deliver); err != nil {
				t.Fatal(err)
			}
		}
		counters[node] = l.Counters()
	}
	for _, odd := range []int{1, 3} {
		if counters[odd].Partitioned != 50 || counters[odd].Dropped != 0 {
			t.Fatalf("odd node %d counters: %+v", odd, counters[odd])
		}
	}
	if counters[0].Dropped == counters[2].Dropped && counters[0].Dropped == 50 {
		t.Log("suspicious: identical drop counts on different per-node seeds (possible, unlikely)")
	}
	if counters[0].Partitioned != 0 {
		t.Fatalf("even node partitioned: %+v", counters[0])
	}
	if _, err := plan.NewLink(-1); err == nil {
		t.Fatal("negative node accepted")
	}
	// A nil plan validates (the no-chaos default).
	var nilPlan *chaos.Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatal(err)
	}
}
