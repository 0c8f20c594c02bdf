package gateway

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"davide/internal/monitors"
	"davide/internal/ptp"
	"davide/internal/sensor"
)

// faultyPub fails publishing at scripted call indices (1-based), once
// each, recording every successful publish. Anything but a QoS 0,
// non-retained power batch is an error: the gateway publishes nothing
// else.
type faultyPub struct {
	calls   int
	failAt  map[int]bool
	batches []Batch
}

var errInjected = errors.New("injected publish failure")

func (p *faultyPub) Publish(topic string, payload []byte, qos byte, retain bool) error {
	p.calls++
	if p.failAt[p.calls] {
		delete(p.failAt, p.calls)
		return errInjected
	}
	if qos != 0 || retain {
		return fmt.Errorf("publish on %q at qos %d retain %v", topic, qos, retain)
	}
	b, err := DecodeBatch(payload)
	if err != nil {
		return err
	}
	p.batches = append(p.batches, b)
	return nil
}

func newResumeGateway(t *testing.T, pub Publisher, seed int64) *Gateway {
	t.Helper()
	mon, err := monitors.NewBuiltin(monitors.EnergyGateway, 100, seed)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := ptp.NewClock(0, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(3, mon, clock, pub, 32)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func TestPublishWindowResumeAfterCrash(t *testing.T) {
	sig := sensor.Sum{sensor.Const(400), sensor.Square{Low: 0, High: 900, Period: 2, Duty: 0.5}}

	// Reference: a clean run with the same seed.
	clean := &faultyPub{failAt: map[int]bool{}}
	ref := newResumeGateway(t, clean, 9)
	wantEnergy, err := ref.PublishWindow(sig, 0, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Faulty run: publishes 4 and 20 fail once each (mid-window
	// crashes); the caller resumes with the same cursor.
	faulty := &faultyPub{failAt: map[int]bool{4: true, 20: true}}
	gw := newResumeGateway(t, faulty, 9)
	var cur Cursor
	var energy float64
	attempts := 0
	for {
		attempts++
		if attempts > 10 {
			t.Fatal("resume did not converge")
		}
		energy, err = gw.PublishWindowResume(sig, 0, 10, &cur)
		if err == nil {
			break
		}
		if !errors.Is(err, errInjected) {
			t.Fatal(err)
		}
		if cur.Done() {
			t.Fatal("cursor done despite error")
		}
	}
	if attempts != 3 {
		t.Fatalf("converged in %d attempts, want 3 (two injected failures)", attempts)
	}
	if !cur.Done() || cur.Remaining() != 0 {
		t.Fatalf("cursor not complete: done=%v remaining=%d", cur.Done(), cur.Remaining())
	}
	if energy != wantEnergy {
		t.Fatalf("resumed energy %v != clean energy %v", energy, wantEnergy)
	}

	// The delivered batches must be identical to the clean run's: same
	// count, same stamps, same samples (the cursor republishes cached
	// stamped samples, it does not re-observe).
	if len(faulty.batches) != len(clean.batches) {
		t.Fatalf("delivered %d batches, want %d", len(faulty.batches), len(clean.batches))
	}
	for i := range clean.batches {
		a, b := clean.batches[i], faulty.batches[i]
		if a.T0 != b.T0 || a.Dt != b.Dt || len(a.Samples) != len(b.Samples) {
			t.Fatalf("batch %d header mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Samples {
			if a.Samples[j] != b.Samples[j] {
				t.Fatalf("batch %d sample %d: %v vs %v", i, j, a.Samples[j], b.Samples[j])
			}
		}
	}

	// Gateway counters must not double-count resumed batches.
	if gw.Stats() != ref.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", gw.Stats(), ref.Stats())
	}

	// Calling again after completion is a cheap no-op with the same energy.
	calls := faulty.calls
	again, err := gw.PublishWindowResume(sig, 0, 10, &cur)
	if err != nil || again != energy || faulty.calls != calls {
		t.Fatalf("post-done resume republished: energy=%v err=%v calls %d->%d", again, err, calls, faulty.calls)
	}
}

func TestPublishWindowResumeValidation(t *testing.T) {
	pub := &faultyPub{failAt: map[int]bool{}}
	gw := newResumeGateway(t, pub, 1)
	if _, err := gw.PublishWindowResume(sensor.Const(100), 0, 1, nil); err == nil {
		t.Fatal("nil cursor accepted")
	}
	var cur Cursor
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range [][2]float64{{1, 1}, {1, 0}, {nan, 1}, {0, nan}, {inf, 1}, {0, inf}, {-inf, 1}, {0, -inf}} {
		if _, err := gw.PublishWindowResume(sensor.Const(100), w[0], w[1], &cur); err == nil {
			t.Fatalf("window [%v, %v] accepted", w[0], w[1])
		}
		if cur.Started() || pub.calls != 0 {
			t.Fatalf("window [%v, %v]: failed start left cursor started or published", w[0], w[1])
		}
	}
}

func TestPayloadSamples(t *testing.T) {
	b := Batch{Node: 4, T0: 1.5, Dt: 0.02}
	for i := 0; i < 37; i++ {
		b.Samples = append(b.Samples, 500+float64(i))
	}
	p, err := b.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if got := PayloadSamples(p); got != 37 {
		t.Fatalf("PayloadSamples = %d, want 37", got)
	}
	for _, junk := range [][]byte{nil, {}, {0xFF, 1, 2}, []byte("{"), {0xDA}, {0xDA, 0x02, 1, 1}} {
		if got := PayloadSamples(junk); got != 0 {
			t.Fatalf("PayloadSamples(%v) = %d, want 0", junk, got)
		}
	}
}
