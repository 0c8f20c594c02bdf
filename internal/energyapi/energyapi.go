// Package energyapi implements the developer-facing energy APIs of §IV of
// the paper: the library application developers "explicitly call inside
// the source code" to (i) mark program phases so power traces can be
// correlated with them, (ii) switch off or sleep unused components (CPU
// cores, GPUs), and (iii) hint the frequency the phase needs — letting the
// system "size the node around the job requirements" and letting the
// developer "compare time-to-solution versus energy-to-solution and
// identify the right tradeoff".
//
// It runs on the node model, and only examples/appenergy and the
// figures reach it. Its phases are accounting.Phase, the type
// accounting.Phases rebuilds after the fact from the monitoring plane.
package energyapi

import (
	"errors"
	"fmt"

	"davide/internal/accounting"
	"davide/internal/node"
)

// Clock supplies the current time to the session; in the simulator this is
// virtual time, in a live deployment it would be the PTP-disciplined
// clock.
type Clock func() float64

// Session instruments one application run on one node.
type Session struct {
	node    *node.Node
	clock   Clock
	started float64
	phases  []accounting.Phase
	open    *accounting.Phase
	closed  bool
}

// NewSession opens an instrumented run on the node. The node's power trace
// must be driven by the caller (RecordPower) or by the session's knob
// methods, which record automatically.
func NewSession(n *node.Node, clock Clock) (*Session, error) {
	if n == nil {
		return nil, errors.New("energyapi: nil node")
	}
	if clock == nil {
		return nil, errors.New("energyapi: nil clock")
	}
	s := &Session{node: n, clock: clock, started: clock()}
	if err := n.RecordPower(s.started); err != nil {
		return nil, err
	}
	return s, nil
}

// PhaseBegin marks the start of a named phase.
func (s *Session) PhaseBegin(name string) error {
	if s.closed {
		return errors.New("energyapi: session closed")
	}
	if s.open != nil {
		return fmt.Errorf("energyapi: phase %q still open", s.open.Name)
	}
	if name == "" {
		return errors.New("energyapi: empty phase name")
	}
	now := s.clock()
	if err := s.node.RecordPower(now); err != nil {
		return err
	}
	s.open = &accounting.Phase{Name: name, T0: now}
	return nil
}

// PhaseEnd closes the open phase and accounts its energy from the node
// trace.
func (s *Session) PhaseEnd() error {
	if s.closed {
		return errors.New("energyapi: session closed")
	}
	if s.open == nil {
		return errors.New("energyapi: no open phase")
	}
	now := s.clock()
	if err := s.node.RecordPower(now); err != nil {
		return err
	}
	ph := *s.open
	ph.T1 = now
	e, err := s.node.Energy(ph.T0, ph.T1)
	if err != nil {
		return err
	}
	ph.EnergyJ = float64(e)
	if d := ph.Duration(); d > 0 {
		ph.MeanW = ph.EnergyJ / d
	}
	s.phases = append(s.phases, ph)
	s.open = nil
	return nil
}

// SetLoad drives the node utilisation (stands in for the application's
// compute intensity) and records the change in the power trace.
func (s *Session) SetLoad(u float64) error {
	if s.closed {
		return errors.New("energyapi: session closed")
	}
	s.node.SetLoad(u)
	return s.node.RecordPower(s.clock())
}

// RequestFrequency hints the P-state the current phase needs (the §IV
// "effect on the energy to solution" knob). p indexes the node's ladder.
func (s *Session) RequestFrequency(p int) error {
	if s.closed {
		return errors.New("energyapi: session closed")
	}
	if err := s.node.SetPState(p); err != nil {
		return err
	}
	return s.node.RecordPower(s.clock())
}

// ReleaseGPUs powers off all but k GPUs ("switch off or put in sleep mode
// particular system components on-demand, such as unused ... GPU").
func (s *Session) ReleaseGPUs(keep int) error {
	if s.closed {
		return errors.New("energyapi: session closed")
	}
	if err := s.node.SetGPUsPowered(keep); err != nil {
		return err
	}
	return s.node.RecordPower(s.clock())
}

// ReleaseCores powers off CPU cores beyond keep per socket. On a socket
// that rejects the request the remaining sockets are left untouched, but
// any changes already applied are still recorded in the power trace —
// otherwise the energy integral would bill the old power level until the
// next record.
func (s *Session) ReleaseCores(keepPerSocket int) error {
	if s.closed {
		return errors.New("energyapi: session closed")
	}
	applied := 0
	for _, sock := range s.node.Sockets {
		if err := sock.SetActiveCores(keepPerSocket); err != nil {
			if applied > 0 {
				if rerr := s.node.RecordPower(s.clock()); rerr != nil {
					return errors.Join(err, rerr)
				}
			}
			return err
		}
		applied++
	}
	return s.node.RecordPower(s.clock())
}

// Report is the whole-run summary the developer iterates on.
type Report struct {
	Phases      []accounting.Phase
	TotalTimeS  float64 // time-to-solution
	TotalJ      float64 // energy-to-solution
	MeanPowerW  float64
	EnergyDelay float64 // energy-delay product, J*s
}

// Close finalises the session and returns the TTS/ETS report.
func (s *Session) Close() (Report, error) {
	if s.closed {
		return Report{}, errors.New("energyapi: session already closed")
	}
	if s.open != nil {
		return Report{}, fmt.Errorf("energyapi: phase %q still open", s.open.Name)
	}
	now := s.clock()
	if err := s.node.RecordPower(now); err != nil {
		return Report{}, err
	}
	s.closed = true
	e, err := s.node.Energy(s.started, now)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Phases:     append([]accounting.Phase(nil), s.phases...),
		TotalTimeS: now - s.started,
		TotalJ:     float64(e),
	}
	if r.TotalTimeS > 0 {
		r.MeanPowerW = r.TotalJ / r.TotalTimeS
	}
	r.EnergyDelay = r.TotalJ * r.TotalTimeS
	return r, nil
}

// TradeoffPoint is one (configuration, TTS, ETS) sample of the §IV design
// space.
type TradeoffPoint struct {
	Label      string
	PState     int
	GPUs       int
	TimeS      float64
	EnergyJ    float64
	PowerW     float64
	Efficiency float64 // useful work per joule, caller-defined units
}

// ParetoFront returns the points not dominated in (TimeS, EnergyJ): the
// frontier the paper wants developers to explore.
func ParetoFront(points []TradeoffPoint) ([]TradeoffPoint, error) {
	if len(points) == 0 {
		return nil, errors.New("energyapi: no points")
	}
	var front []TradeoffPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.TimeS <= p.TimeS && q.EnergyJ <= p.EnergyJ &&
				(q.TimeS < p.TimeS || q.EnergyJ < p.EnergyJ) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front, nil
}
