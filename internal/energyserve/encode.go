package energyserve

import (
	"errors"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"davide/internal/tsdb"
)

// The window reply is the one body the service writes on its cold path,
// at up to a few thousand points a request, and reflection-driven
// encoding/json spent 60 % of the query-mix CPU on it. appendWindowReport
// writes the same bytes by hand — TestAppendWindowReportMatchesJSON and
// FuzzAppendFloat hold it to json.Marshal byte for byte — so the cache,
// nocache=1 equality and every client are indifferent to which wrote them.
// A float reaches the shortest-digits search (Ryū) only when neither of two
// cheaper forms can be verified on the value itself: its exact binary
// expansion (ADC-grid watts, bucket bounds) or a short decimal (1 kS/s
// timestamps).

// errNonFinite is the encoder's refusal of a value JSON cannot carry
// (encoding/json's UnsupportedValueError; the handler answers 500).
var errNonFinite = errors.New("energyserve: unsupported value: NaN or Inf in window report")

// scratch is what one cold window reply is built in: the points the store
// appends and the body encoded from them. The cache keeps an exact-size
// copy of the body, never the scratch.
type scratch struct {
	points []tsdb.Point
	body   []byte
}

var windowScratch = sync.Pool{New: func() any { return new(scratch) }}

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

var pow10 = [...]float64{10, 100, 1000}

// pow5[k] is 5^k; 5^22 is the last below 2^53, so no exact decimal has
// more than 23 fraction digits.
var pow5 = func() (p [24]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = 5 * p[k-1]
	}
	return p
}()

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, 'e' form below 1e-6 and from 1e21.
// Three tiers, each verified on the value before it is used: the exact
// expansion of a dyadic rational, a short decimal, strconv.
func appendFloat(dst []byte, f float64) []byte {
	if f == 0 {
		if math.Signbit(f) {
			dst = append(dst, '-')
		}
		return append(dst, '0')
	}
	// Exact decimals. A normal |f| is m·2^-k with m odd, and tz, the zeros
	// shifted off the 53-bit mantissa, is the precision it leaves unused.
	// With k <= 0 below 2^53 it is an integer whose neighbours are at most
	// 1 apart, so its own digits are the shortest that round-trip. With
	// k > 0 it is m·5^k·10^-k exactly, k fraction digits ending in 5: every
	// decimal with fewer lies at least 5·10^-k away, which exceeds half an
	// ulp — the most the round-trip interval reaches — exactly when
	// 5^(k-1) < 2^(tz+1). Then nothing shorter parses to f and, of the
	// decimals this long, the exact one is the closest: Ryū's answer
	// without the search. (The inequality also keeps m·5^k below 5·2^54.)
	abs := math.Abs(f)
	if b := math.Float64bits(abs); b>>52 != 0 && abs >= 1e-6 {
		mant := b&(1<<52-1) | 1<<52
		tz := bits.TrailingZeros64(mant)
		m, k := mant>>tz, 1075-int(b>>52)-tz
		if k <= 0 && abs < 1<<53 || k > 0 && k < len(pow5) && pow5[k-1]>>(tz+1) == 0 {
			if f < 0 {
				dst = append(dst, '-')
			}
			if k <= 0 {
				return strconv.AppendUint(dst, m<<-k, 10)
			}
			var buf [20]byte
			digits := strconv.AppendUint(buf[:0], m*pow5[k], 10)
			n := len(digits) - k
			if n > 0 {
				return append(append(append(dst, digits[:n]...), '.'), digits[n:]...)
			}
			// |f| >= 1e-6: at most five zeros lead the fraction.
			return append(append(dst, "0.00000"[:2-n]...), digits...)
		}
	}
	// Short decimals — timestamps off the binary grid — skip the search too:
	// if an integer n below 1e15 divided by 10^k rounds to exactly f, then
	// n·10^-k has at most 15 significant digits, so it is the only decimal
	// that short which parses to f and therefore f's shortest round-trip
	// form. The division is correctly rounded, so this verifies rather than
	// assumes; integers went above, so the first k that matches leaves no
	// trailing zero, and a match means |f| >= 0.001, inside the 'f' range.
	for _, p := range pow10 {
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
		dst = append(strconv.AppendUint(dst, u/d, 10), '.')
		for frac := u % d; d > 1; frac %= d {
			d /= 10
			dst = append(dst, byte('0'+frac/d))
		}
		return dst
	}
	format := byte('f')
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
