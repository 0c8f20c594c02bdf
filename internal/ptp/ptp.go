// Package ptp simulates IEEE 1588 Precision Time Protocol synchronisation
// between the D.A.V.I.D.E. energy gateways and the facility grandmaster
// (§III-A1 of the paper; evaluated for HPC sensor time-stamping by Libri et
// al. [13]). The paper relies on PTP so that power samples taken on
// different nodes carry timestamps that can be correlated with each other
// and with application phase information.
//
// The model contains:
//
//   - Clock: a drifting local oscillator with initial offset, frequency
//     error (ppm) and random-walk jitter;
//   - the two-step offset/delay measurement (SYNC / DELAY_REQ exchange)
//     over a network path with configurable delay, asymmetry and jitter;
//   - a PI servo that steers the slave clock, as ptp4l does.
//
// All times are float64 seconds. "Global" time is the simulation's virtual
// time; each clock converts global time to its local reading.
package ptp

import (
	"errors"
	"math"
	"math/rand"
)

// Clock is a free-running local oscillator.
type Clock struct {
	offset   float64 // current offset from global time, seconds
	freqErr  float64 // fractional frequency error (1e-6 = 1 ppm)
	walkStep float64 // RMS of the random-walk increment per Advance call
	lastT    float64 // last global time observed
	rng      *rand.Rand
	// servo corrections
	freqAdj float64 // steering applied to frequency
}

// NewClock creates a clock with the given initial offset (s), frequency
// error (fractional, e.g. 25e-6 for 25 ppm) and random-walk RMS per second.
func NewClock(offset, freqErr, walkPerSec float64, seed int64) (*Clock, error) {
	if walkPerSec < 0 {
		return nil, errors.New("ptp: negative random-walk amplitude")
	}
	if math.Abs(freqErr) > 1e-3 {
		return nil, errors.New("ptp: frequency error beyond 1000 ppm is not an oscillator")
	}
	c := &Clock{offset: offset, freqErr: freqErr, walkStep: walkPerSec}
	if walkPerSec > 0 { // seeding costs ~5 KB and ~1 800 steps; a walk-free clock never draws
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c, nil
}

// TypicalOscillator returns a clock with the jitter profile of the
// BeagleBone's crystal: up to ±30 ppm static error, 1 µs/√s random walk and
// a random initial offset up to ±10 ms.
func TypicalOscillator(seed int64) *Clock {
	rng := rand.New(rand.NewSource(seed))
	c, err := NewClock(
		(rng.Float64()*2-1)*10e-3,
		(rng.Float64()*2-1)*30e-6,
		1e-6,
		seed^0x7a5,
	)
	if err != nil {
		panic("ptp: TypicalOscillator defaults invalid: " + err.Error())
	}
	return c
}

// Advance moves the clock's notion of elapsed global time to t, accumulating
// drift and random walk. Must be called with non-decreasing t.
func (c *Clock) Advance(t float64) error {
	dt := t - c.lastT
	if dt < 0 {
		return errors.New("ptp: time went backwards")
	}
	c.offset += (c.freqErr + c.freqAdj) * dt
	if c.walkStep > 0 && dt > 0 {
		c.offset += c.rng.NormFloat64() * c.walkStep * math.Sqrt(dt)
	}
	c.lastT = t
	return nil
}

// Read returns the local reading at global time t (advancing the clock).
func (c *Clock) Read(t float64) (float64, error) {
	if err := c.Advance(t); err != nil {
		return 0, err
	}
	return t + c.offset, nil
}

// Offset returns the clock's current offset from global time.
func (c *Clock) Offset() float64 { return c.offset }

// Step applies an immediate phase correction (servo output).
func (c *Clock) Step(delta float64) { c.offset += delta }

// AdjustFrequency sets the steering term added to the oscillator frequency.
func (c *Clock) AdjustFrequency(f float64) { c.freqAdj = f }

// FrequencyAdjustment returns the current steering term.
func (c *Clock) FrequencyAdjustment() float64 { return c.freqAdj }

// Path is the network path between master and slave for PTP messages.
type Path struct {
	MeanDelay float64 // one-way mean delay, seconds
	Asymmetry float64 // forward-minus-reverse delay difference, seconds
	JitterRMS float64 // per-message Gaussian jitter, seconds
	rng       *rand.Rand
}

// NewPath creates a network path. Hardware-timestamped PTP on a local
// switch has ~1 µs delay and tens of ns jitter; software timestamping has
// far more.
func NewPath(mean, asym, jitter float64, seed int64) (*Path, error) {
	if mean <= 0 {
		return nil, errors.New("ptp: mean delay must be positive")
	}
	if jitter < 0 {
		return nil, errors.New("ptp: negative jitter")
	}
	if math.Abs(asym) >= 2*mean {
		return nil, errors.New("ptp: asymmetry exceeds path delay")
	}
	return &Path{MeanDelay: mean, Asymmetry: asym, JitterRMS: jitter, rng: rand.New(rand.NewSource(seed))}, nil
}

// forwardDelay returns one sampled master->slave delay.
func (p *Path) forwardDelay() float64 {
	d := p.MeanDelay + p.Asymmetry/2 + p.rng.NormFloat64()*p.JitterRMS
	if d < 1e-9 {
		d = 1e-9
	}
	return d
}

// reverseDelay returns one sampled slave->master delay.
func (p *Path) reverseDelay() float64 {
	d := p.MeanDelay - p.Asymmetry/2 + p.rng.NormFloat64()*p.JitterRMS
	if d < 1e-9 {
		d = 1e-9
	}
	return d
}

// Measurement is the result of one SYNC/DELAY_REQ exchange.
type Measurement struct {
	OffsetEst float64 // estimated slave-minus-master offset
	DelayEst  float64 // estimated one-way path delay
	T1        float64 // master departure (master clock)
	T2        float64 // slave arrival (slave clock)
	T3        float64 // slave departure (slave clock)
	T4        float64 // master arrival (master clock)
}

// Exchange performs one two-step PTP exchange at global time t between a
// master clock and a slave clock over the path. The slave issues its
// DELAY_REQ reqGap seconds after receiving SYNC.
func Exchange(t float64, master, slave *Clock, path *Path, reqGap float64) (Measurement, error) {
	if reqGap < 0 {
		return Measurement{}, errors.New("ptp: negative request gap")
	}
	fwd := path.forwardDelay()
	rev := path.reverseDelay()

	t1, err := master.Read(t)
	if err != nil {
		return Measurement{}, err
	}
	t2, err := slave.Read(t + fwd)
	if err != nil {
		return Measurement{}, err
	}
	t3, err := slave.Read(t + fwd + reqGap)
	if err != nil {
		return Measurement{}, err
	}
	t4, err := master.Read(t + fwd + reqGap + rev)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{T1: t1, T2: t2, T3: t3, T4: t4}
	m.OffsetEst = ((t2 - t1) - (t4 - t3)) / 2
	m.DelayEst = ((t2 - t1) + (t4 - t3)) / 2
	return m, nil
}

// Servo is the PI controller steering a slave clock from PTP measurements,
// mirroring the linreg/PI servo in ptp4l.
type Servo struct {
	KP, KI    float64
	integral  float64
	stepLimit float64 // offsets larger than this are stepped, not slewed
}

// NewServo creates a PI servo. stepLimit is the |offset| above which the
// servo steps the clock instead of slewing (ptp4l default 20 µs... we use
// 1 ms to converge fast from cold start).
func NewServo(kp, ki, stepLimit float64) (*Servo, error) {
	if kp <= 0 || ki < 0 {
		return nil, errors.New("ptp: servo gains must be positive")
	}
	if stepLimit <= 0 {
		return nil, errors.New("ptp: step limit must be positive")
	}
	return &Servo{KP: kp, KI: ki, stepLimit: stepLimit}, nil
}

// DefaultServo returns gains that converge in a handful of exchanges at
// 1-second sync intervals.
func DefaultServo() *Servo {
	s, err := NewServo(0.7, 0.3, 1e-3)
	if err != nil {
		panic("ptp: DefaultServo defaults invalid: " + err.Error())
	}
	return s
}

// Apply feeds one measurement into the servo, correcting the slave clock.
// interval is the time between exchanges; the integral term uses it to turn
// residual offsets into a frequency correction, so the servo learns the
// oscillator's static frequency error (as ptp4l's PI servo does).
func (s *Servo) Apply(m Measurement, slave *Clock, interval float64) {
	off := m.OffsetEst
	if math.Abs(off) > s.stepLimit {
		slave.Step(-off)
		s.integral = 0
		slave.AdjustFrequency(0)
		return
	}
	if interval <= 0 {
		interval = 1
	}
	s.integral += s.KI * off / interval
	slave.Step(-s.KP * off)
	slave.AdjustFrequency(slave.FrequencyAdjustment() - s.KI*off/interval)
}

// Session couples a slave clock to a master through repeated exchanges.
type Session struct {
	Master *Clock
	Slave  *Clock
	Path   *Path
	Servo  *Servo
	ReqGap float64
}

// Run performs exchanges every interval seconds from t0 for n rounds and
// returns the true residual offset |slave-master| after each round.
func (s *Session) Run(t0, interval float64, n int) ([]float64, error) {
	if interval <= 0 {
		return nil, errors.New("ptp: sync interval must be positive")
	}
	if n <= 0 {
		return nil, errors.New("ptp: need at least one round")
	}
	res := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*interval
		m, err := Exchange(t, s.Master, s.Slave, s.Path, s.ReqGap)
		if err != nil {
			return nil, err
		}
		s.Servo.Apply(m, s.Slave, interval)
		res = append(res, math.Abs(s.Slave.Offset()-s.Master.Offset()))
	}
	return res, nil
}

// RMS returns the root-mean-square of the last k values of xs (or all of
// them if k >= len(xs)).
func RMS(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if k <= 0 || k > len(xs) {
		k = len(xs)
	}
	s := 0.0
	for _, x := range xs[len(xs)-k:] {
		s += x * x
	}
	return math.Sqrt(s / float64(k))
}
