package energyserve

import (
	"errors"
	"math"
	"strconv"
	"sync"
)

// The window reply is the one body the service writes on its cold path,
// at up to a few thousand points a request, and reflection-driven
// encoding/json spent 60 % of the query-mix CPU on it. appendWindowReport
// writes the same bytes by hand — TestAppendWindowReportMatchesJSON and
// FuzzAppendFloat hold it to json.Marshal byte for byte — so the cache,
// nocache=1 equality and every client are indifferent to which wrote them.

// errNonFinite is the encoder's refusal of a value JSON cannot carry
// (encoding/json's UnsupportedValueError; the handler answers 500).
var errNonFinite = errors.New("energyserve: unsupported value: NaN or Inf in window report")

// encodeBufs holds scratch buffers for one encode each; the cache keeps an
// exact-size copy, never the scratch.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

func finite(f float64) bool { return f-f == 0 }

// appendWindowReport appends json.Marshal(rep) to dst.
func appendWindowReport(dst []byte, rep *WindowReport) ([]byte, error) {
	ok := finite(rep.T0) && finite(rep.T1) && finite(rep.Res) && finite(rep.EnergyJ) && finite(rep.MeanW)
	for i := range rep.Points {
		p := &rep.Points[i]
		ok = ok && finite(p.T0) && finite(p.T1) && finite(p.MeanW) && finite(p.MaxW) && finite(p.EnergyJ)
	}
	if !ok {
		return dst, errNonFinite
	}
	dst = strconv.AppendInt(append(dst, `{"node":`...), int64(rep.Node), 10)
	dst = appendFloat(append(dst, `,"t0":`...), rep.T0)
	dst = appendFloat(append(dst, `,"t1":`...), rep.T1)
	dst = appendFloat(append(dst, `,"res":`...), rep.Res)
	dst = appendFloat(append(dst, `,"energy_j":`...), rep.EnergyJ)
	dst = appendFloat(append(dst, `,"mean_w":`...), rep.MeanW)
	if rep.Points == nil {
		return append(dst, `,"points":null}`...), nil
	}
	dst = append(dst, `,"points":[`...)
	// Most of a point repeats a value just written: a raw sample has
	// T1 == T0 and MaxW == MeanW, a rollup bucket starts where the last
	// one ended and a fully covered 1-s bucket has EnergyJ == MeanW. Those
	// copy the bytes already in dst, so each distinct value is formatted
	// once.
	var t0, t1, mean span
	prevT1 := 0.0
	for i := range rep.Points {
		p := &rep.Points[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, t0 = appendFloatOrCopy(append(dst, `{"T0":`...), p.T0, prevT1, t1)
		dst, t1 = appendFloatOrCopy(append(dst, `,"T1":`...), p.T1, p.T0, t0)
		dst, mean = appendFloatOrCopy(append(dst, `,"MeanW":`...), p.MeanW, 0, span{})
		dst, _ = appendFloatOrCopy(append(dst, `,"MaxW":`...), p.MaxW, p.MeanW, mean)
		dst, _ = appendFloatOrCopy(append(dst, `,"EnergyJ":`...), p.EnergyJ, p.MeanW, mean)
		dst = append(dst, '}')
		prevT1 = p.T1
	}
	return append(dst, `]}`...), nil
}

// span locates a value's encoded form in the buffer being built.
type span struct{ lo, hi int }

// appendFloatOrCopy appends f's JSON form and reports where it lies. When
// f has the bits of was, whose form already lies at dst[at.lo:at.hi], it
// copies those bytes; an empty at always formats.
func appendFloatOrCopy(dst []byte, f, was float64, at span) ([]byte, span) {
	lo := len(dst)
	if at.hi > at.lo && math.Float64bits(f) == math.Float64bits(was) {
		dst = append(dst, dst[at.lo:at.hi]...)
	} else {
		dst = appendFloat(dst, f)
	}
	return dst, span{lo, len(dst)}
}

var pow10 = [...]float64{1, 10, 100, 1000}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, 'e' form below 1e-6 and from 1e21.
func appendFloat(dst []byte, f float64) []byte {
	if f == 0 {
		if math.Signbit(f) {
			dst = append(dst, '-')
		}
		return append(dst, '0')
	}
	// Short decimals — timestamps, bucket bounds — skip the shortest-digits
	// search: if an integer n below 1e15 divided by 10^k rounds to exactly
	// f, then n·10^-k has at most 15 significant digits, so it is the only
	// decimal that short which parses to f and therefore f's shortest
	// round-trip form. The division is correctly rounded, so this verifies
	// rather than assumes; the first k that matches leaves no trailing
	// zero, and a match means |f| >= 0.001, inside the 'f' range.
	for k, p := range pow10 {
		n := math.RoundToEven(f * p)
		if math.Abs(n) >= 1e15 {
			break
		}
		if n/p != f {
			continue
		}
		if n < 0 {
			dst = append(dst, '-')
		}
		u, d := uint64(math.Abs(n)), uint64(p)
		dst = strconv.AppendUint(dst, u/d, 10)
		if k == 0 {
			return dst
		}
		dst = append(dst, '.')
		for frac := u % d; d > 1; frac %= d {
			d /= 10
			dst = append(dst, byte('0'+frac/d))
		}
		return dst
	}
	abs, format := math.Abs(f), byte('f')
	if abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-09 to e-9, as encoding/json cleans it up.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
