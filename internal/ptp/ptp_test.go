package ptp

import (
	"math"
	"math/rand"
	"testing"
)

func TestClockValidation(t *testing.T) {
	if _, err := NewClock(0, 0, -1, 1); err == nil {
		t.Error("negative walk should error")
	}
	if _, err := NewClock(0, 0.01, 0, 1); err == nil {
		t.Error("absurd frequency error should error")
	}
}

// TestClockDrawsOnlyWhenItWalks: a walk-free clock seeds no generator,
// and a walking clock draws the sequence of rand.New(rand.NewSource(seed)).
func TestClockDrawsOnlyWhenItWalks(t *testing.T) {
	still, err := NewClock(1e-3, 10e-6, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if still.rng != nil {
		t.Error("a walk-0 clock holds a generator it never draws from")
	}
	const seed, walk = 42, 1e-6
	c, err := NewClock(0, 0, walk, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(seed))
	want := 0.0
	for i := 1; i <= 100; i++ {
		dt := 0.25 * float64(i%4+1)
		want += ref.NormFloat64() * walk * math.Sqrt(dt)
		if err := c.Advance(c.lastT + dt); err != nil {
			t.Fatal(err)
		}
		if got := c.Offset(); got != want {
			t.Fatalf("step %d: offset %v, want %v from the reference generator", i, got, want)
		}
	}
}

func TestClockDrift(t *testing.T) {
	c, err := NewClock(1e-3, 10e-6, 0, 1) // 1 ms offset, 10 ppm drift, no walk
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1e-3) > 1e-12 {
		t.Errorf("Read(0) = %v, want 1e-3", r)
	}
	// After 100 s, drift adds 1 ms.
	r, err = c.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-(100+2e-3)) > 1e-9 {
		t.Errorf("Read(100) = %v, want 100.002", r)
	}
}

func TestClockBackwardsTime(t *testing.T) {
	c, err := NewClock(0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(5); err == nil {
		t.Error("backwards time should error")
	}
	if err := c.Advance(4); err == nil {
		t.Error("backwards Advance should error")
	}
}

func TestClockStepAndFrequency(t *testing.T) {
	c, err := NewClock(5e-3, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Step(-5e-3)
	if math.Abs(c.Offset()) > 1e-15 {
		t.Errorf("offset after step = %v", c.Offset())
	}
	c.AdjustFrequency(1e-6)
	if c.FrequencyAdjustment() != 1e-6 {
		t.Error("frequency adjustment not stored")
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Offset()-10e-6) > 1e-12 {
		t.Errorf("offset after steered advance = %v, want 1e-5", c.Offset())
	}
}

func TestTypicalOscillatorBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := TypicalOscillator(seed)
		if math.Abs(c.Offset()) > 10e-3 {
			t.Errorf("seed %d: initial offset %v out of ±10ms", seed, c.Offset())
		}
	}
}

func TestPathValidation(t *testing.T) {
	if _, err := NewPath(0, 0, 0, 1); err == nil {
		t.Error("zero delay should error")
	}
	if _, err := NewPath(1e-6, 0, -1, 1); err == nil {
		t.Error("negative jitter should error")
	}
	if _, err := NewPath(1e-6, 5e-6, 0, 1); err == nil {
		t.Error("asymmetry > path should error")
	}
}

func TestExchangeIdealPath(t *testing.T) {
	// Symmetric jitter-free path: offset estimate must equal the true
	// clock offset exactly.
	master, err := NewClock(0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	slave, err := NewClock(3e-3, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPath(1e-6, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Exchange(0, master, slave, path, 10e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.OffsetEst-3e-3) > 1e-12 {
		t.Errorf("OffsetEst = %v, want 3e-3", m.OffsetEst)
	}
	if math.Abs(m.DelayEst-1e-6) > 1e-12 {
		t.Errorf("DelayEst = %v, want 1e-6", m.DelayEst)
	}
	// T2 > T1 holds here because the slave runs ahead of the master; T4
	// vs T3 compares different clock domains, so no ordering is implied.
	if m.T2 <= m.T1 {
		t.Error("slave arrival should trail master departure plus offset")
	}
}

func TestExchangeAsymmetryBias(t *testing.T) {
	// Asymmetry a biases the offset estimate by a/2 — the classic PTP
	// error term.
	master, _ := NewClock(0, 0, 0, 1)
	slave, _ := NewClock(0, 0, 0, 2)
	path, err := NewPath(10e-6, 4e-6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Exchange(0, master, slave, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.OffsetEst-2e-6) > 1e-12 {
		t.Errorf("OffsetEst = %v, want 2e-6 (asym/2)", m.OffsetEst)
	}
}

func TestExchangeNegativeGap(t *testing.T) {
	master, _ := NewClock(0, 0, 0, 1)
	slave, _ := NewClock(0, 0, 0, 2)
	path, _ := NewPath(1e-6, 0, 0, 3)
	if _, err := Exchange(0, master, slave, path, -1); err == nil {
		t.Error("negative gap should error")
	}
}

func TestServoValidation(t *testing.T) {
	if _, err := NewServo(0, 0.1, 1e-3); err == nil {
		t.Error("zero KP should error")
	}
	if _, err := NewServo(0.5, -1, 1e-3); err == nil {
		t.Error("negative KI should error")
	}
	if _, err := NewServo(0.5, 0.1, 0); err == nil {
		t.Error("zero step limit should error")
	}
}

func TestServoStepsLargeOffset(t *testing.T) {
	slave, _ := NewClock(50e-3, 0, 0, 2)
	s := DefaultServo()
	s.Apply(Measurement{OffsetEst: 50e-3}, slave, 1)
	if math.Abs(slave.Offset()) > 1e-12 {
		t.Errorf("offset after step = %v, want 0", slave.Offset())
	}
}

func TestSessionConvergence(t *testing.T) {
	// A realistic gateway: 20 ppm drift, random walk, hardware timestamps
	// (50 ns jitter). After 60 one-second rounds, residual offset must be
	// well under 10 µs — the paper's requirement for correlating 50 kS/s
	// samples across nodes (20 µs sample spacing).
	master, err := NewClock(0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	slave, err := NewClock(8e-3, 20e-6, 1e-7, 2)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPath(1e-6, 0, 50e-9, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess := &Session{Master: master, Slave: slave, Path: path, Servo: DefaultServo(), ReqGap: 100e-6}
	res, err := sess.Run(0, 1.0, 60)
	if err != nil {
		t.Fatal(err)
	}
	steady := RMS(res, 20)
	if steady > 10e-6 {
		t.Errorf("steady-state RMS offset = %v s, want < 10 µs", steady)
	}
}

func TestSessionJitterDegradesSync(t *testing.T) {
	// Software timestamping (100 µs jitter) must be far worse than
	// hardware timestamping — the reason the paper's EG uses PTP-capable
	// hardware.
	run := func(jitter float64) float64 {
		master, _ := NewClock(0, 0, 0, 10)
		slave, _ := NewClock(5e-3, 15e-6, 1e-7, 20)
		path, err := NewPath(50e-6, 0, jitter, 30)
		if err != nil {
			t.Fatal(err)
		}
		sess := &Session{Master: master, Slave: slave, Path: path, Servo: DefaultServo(), ReqGap: 100e-6}
		res, err := sess.Run(0, 1.0, 120)
		if err != nil {
			t.Fatal(err)
		}
		return RMS(res, 40)
	}
	hw := run(50e-9)
	sw := run(100e-6)
	if sw < hw*20 {
		t.Errorf("software sync RMS %v should be >20x worse than hardware %v", sw, hw)
	}
}

func TestSessionValidation(t *testing.T) {
	master, _ := NewClock(0, 0, 0, 1)
	slave, _ := NewClock(0, 0, 0, 2)
	path, _ := NewPath(1e-6, 0, 0, 3)
	sess := &Session{Master: master, Slave: slave, Path: path, Servo: DefaultServo()}
	if _, err := sess.Run(0, 0, 5); err == nil {
		t.Error("zero interval should error")
	}
	if _, err := sess.Run(0, 1, 0); err == nil {
		t.Error("zero rounds should error")
	}
}

func TestRMS(t *testing.T) {
	if RMS(nil, 3) != 0 {
		t.Error("empty RMS should be 0")
	}
	xs := []float64{3, 4}
	if math.Abs(RMS(xs, 0)-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", RMS(xs, 0))
	}
	if RMS([]float64{1, 2, 3, 4}, 1) != 4 {
		t.Errorf("RMS last-1 = %v, want 4", RMS([]float64{1, 2, 3, 4}, 1))
	}
}
