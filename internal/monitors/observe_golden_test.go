package monitors

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"davide/internal/sensor"
)

// observeBitsGolden holds, per built-in class and signal, an FNV-64a over
// math.Float64bits of every T and P that three successive Observe calls on
// one monitor (seed 20260) return. Generated at commit d18bf1d — the
// two-pass SampleSignal + Decimate with math.Mod in Square.PowerAt — before
// internal/sensor's synthesis loop was rewritten. Regenerating them from a
// later tree proves nothing: a mismatch means the sample train changed.
//
// Signals 0, 1 and 3 of the HDEEM and EnergyGateway rows (n = 8 and 16)
// were regenerated once, on the child of commit fd2af34, when
// SampleDecimated began to draw each level group (n bit-equal powers)
// as one sample from its code sum's distribution: their noise
// realisation moved by design. Everything else is still d18bf1d's: the
// IPMI, ArduPower and PowerInsight rows (n = 1) and signal 2 in every
// row (a Sum with a Sine, which holds no level group) are the proof that
// the per-conversion path did not move.
var observeBitsGolden = map[Class][4][3]uint64{
	IPMI: {
		{0xc25af8ec96afe6dc, 0xb03d801fa9ef39b2, 0xce017b090d82a8c8},
		{0xcbaa2a453b1911bb, 0x4245a2cf9a48c75b, 0x0051496a7f08a191},
		{0x5ce88b3bca12de9e, 0xe0107bc5d256ff47, 0x7f7db15fff00e5a4},
		{0xa84aafc1cad4c751, 0xc0107febf70b051e, 0x7bd02ac6be4c21ea},
	},
	ArduPower: {
		{0xba7419a8177b3f50, 0xaf7f7036c845bbc0, 0x436e25ea2a630349},
		{0x70828887c400ef24, 0x30a355997b9b1c79, 0x5ed753e13906e223},
		{0xb4d50e7310168128, 0x03c187d9c9688d45, 0x99fd39839c09ff63},
		{0x0300eacd8f3038e1, 0xb212a242194d9627, 0x2a2de8c161f9f007},
	},
	PowerInsight: {
		{0x6e166b72de70cf7a, 0xe186a42c7a9ad4de, 0x146bfa5bfb3e2374},
		{0x3739c9326b7f84d9, 0xf17f04eecc8f2a10, 0xd950c7c512b709fe},
		{0x001b1c547a5296c8, 0x51cb288b939adf90, 0x1d01df82b1419572},
		{0xabef54723d8d6bec, 0x3aed8d7394df939d, 0x6c8d23f7fa8043c6},
	},
	HDEEM: {
		{0x720ac631fc069d23, 0xfceb088d1d308415, 0x7dd7285ff25462af},
		{0xc519fb3d970a7d52, 0x0d3e3076e245a61f, 0xe842a620677ea10f},
		{0xa0b61dce987dc248, 0x32a0275ea6fb6954, 0xb693a3fb356cb2d7},
		{0x400319fc4ab5e619, 0x9e91d79e8ec62dd9, 0xe0689f2b29e68252},
	},
	EnergyGateway: {
		{0x8adbfccfe54800d8, 0x943242eced4973ca, 0x43a5a6dab5afd090},
		{0xc7cb17d029bf5c5c, 0x78e4c48e79b8c0b2, 0x9525ff3fe3297d83},
		{0xb5e7501a28a28336, 0x8b41ce6673d7cbd9, 0xce966d981cef7aae},
		{0xbc3d44287f7d29b7, 0x5a29993919f96396, 0x603dc0e7d8eef5bd},
	},
}

// TestObserveBitsGolden is the bit-identity guard against the parent
// commit: the differential tests in internal/sensor share fmod and convert
// with the code under test, these constants do not. The three windows run
// back to back on one monitor, so a window that leaves the noise stream a
// draw short or long shows in the next one.
func TestObserveBitsGolden(t *testing.T) {
	pw := sensor.NewPiecewise(0, 900)
	for _, bp := range [][2]float64{{1.0, 1400}, {13.0, 700}, {6001.3, 1900}} {
		if err := pw.Set(bp[0], bp[1]); err != nil {
			t.Fatal(err)
		}
	}
	square := sensor.Square{Low: 0, High: 933, Period: 2.37, Duty: 0.374, Phase: 0.41}
	signals := [4]sensor.Signal{
		sensor.Const(1234.5),
		sensor.Sum{sensor.Const(311), square},
		sensor.Sum{sensor.Const(311), square, sensor.Sine{Amp: 40, Freq: 117, Phase: 0.3}},
		pw,
	}
	// The third window's raw count is a multiple of neither averaging
	// factor (EG 808024 = 16·50501 + 8, HDEEM 64641 = 8·8080 + 1).
	windows := [3][2]float64{{0, 2}, {6000.3, 6002.3}, {12.5, 13.51003}}
	for _, c := range []Class{IPMI, ArduPower, PowerInsight, HDEEM, EnergyGateway} {
		for si, sig := range signals {
			m, err := NewBuiltin(c, 3000, 20260)
			if err != nil {
				t.Fatal(err)
			}
			for wi, w := range windows {
				out, err := m.Observe(sig, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var b [16]byte
				for _, s := range out {
					binary.LittleEndian.PutUint64(b[:8], math.Float64bits(s.T))
					binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.P))
					h.Write(b[:])
				}
				if got, want := h.Sum64(), observeBitsGolden[c][si][wi]; got != want {
					t.Errorf("%v signal %d window %d: %d samples hash %#016x, want %#016x", c, si, wi, len(out), got, want)
				}
			}
		}
	}
}
