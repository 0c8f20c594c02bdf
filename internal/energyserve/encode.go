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
// writes the same bytes by hand — TestAppendWindowReportMatchesJSON,
// FuzzAppendFloat and FuzzAppendWindowReport hold it to json.Marshal byte
// for byte — so the cache, nocache=1 equality and every client are
// indifferent to which wrote them. Each distinct value is formatted once
// per body: a node's watts sit on a few dozen ADC levels and a point's
// bounds repeat its neighbours', so a small memo maps a float's bits to
// where its form already lies in the body, and a repeat copies those
// bytes. Equal bits always have equal forms, so a copy is byte for byte
// what formatting would have written. A float that is formatted reaches
// the shortest-digits search (Ryū) only when neither of two cheaper forms
// can be verified on the value itself: its exact binary expansion
// (ADC-grid watts, bucket bounds) or a short decimal (1 kS/s timestamps).

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
	var memo floatMemo
	dst = strconv.AppendInt(append(dst, `{"node":`...), int64(rep.Node), 10)
	dst = memo.appendFloat(append(dst, `,"t0":`...), rep.T0)
	dst = memo.appendFloat(append(dst, `,"t1":`...), rep.T1)
	dst = memo.appendFloat(append(dst, `,"res":`...), rep.Res)
	dst = memo.appendFloat(append(dst, `,"energy_j":`...), rep.EnergyJ)
	dst = memo.appendFloat(append(dst, `,"mean_w":`...), rep.MeanW)
	if rep.Points == nil {
		return append(dst, `,"points":null}`...), nil
	}
	dst = append(dst, `,"points":[`...)
	for i := range rep.Points {
		p := &rep.Points[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = memo.appendFloat(append(dst, `{"T0":`...), p.T0)
		dst = memo.appendFloat(append(dst, `,"T1":`...), p.T1)
		dst = memo.appendFloat(append(dst, `,"MeanW":`...), p.MeanW)
		dst = memo.appendFloat(append(dst, `,"MaxW":`...), p.MaxW)
		dst = memo.appendFloat(append(dst, `,"EnergyJ":`...), p.EnergyJ)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...), nil
}

// memoBits sets the memo's size: 1<<memoBits slots of 16 bytes, on the
// encoder's stack. Measured on query-mix, 32 to 128 slots gave up 4–9 %
// of 256's throughput and 512 or 1024 gained no more than runs spread.
const memoBits = 8

// floatMemo is a direct-mapped table from a float's bits to the offsets
// [lo, hi) of its JSON form in the body being built. A slot holds the last
// value hashed to it; hi == 0 marks a slot never filled, as every form is
// at least one byte long. Offsets are 32-bit to keep a slot at 16 bytes;
// past 4 GiB of body a form is written but not recorded.
type floatMemo [1 << memoBits]struct {
	bits   uint64
	lo, hi uint32
}

// appendFloat appends f's JSON form to dst, the body the memo indexes:
// a copy of the form already written when f's bits are in their slot,
// else the form formatted anew, which then takes the slot.
func (m *floatMemo) appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	s := &m[memoSlot(b)]
	if s.bits == b && s.hi != 0 {
		return append(dst, dst[s.lo:s.hi]...)
	}
	lo := len(dst)
	dst = appendFloat(dst, f)
	if uint64(len(dst)) <= math.MaxUint32 {
		s.bits, s.lo, s.hi = b, uint32(lo), uint32(len(dst))
	}
	return dst
}

// memoSlot is the slot of a float with bits b: Fibonacci hashing, because
// ADC levels differ in their high mantissa bits only.
func memoSlot(b uint64) uint64 { return b * 0x9e3779b97f4a7c15 >> (64 - memoBits) }

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
