package gateway

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"davide/internal/monitors"
	"davide/internal/sensor"
	"davide/internal/wire"
)

// TestCodecValidate: AppendEncode writes the binary frame for
// CodecBinary and the zero value, and refuses any other codec name
// rather than silently encoding something else.
func TestCodecValidate(t *testing.T) {
	b := Batch{Node: 1, Dt: 1, Samples: []float64{1}}
	for _, c := range []Codec{"", CodecBinary} {
		p, err := b.AppendEncode(nil, c)
		if err != nil {
			t.Fatalf("AppendEncode(%q) = %v", c, err)
		}
		if p[0] != binMagic {
			t.Errorf("AppendEncode(%q) wrote first byte %#x, want the frame magic", c, p[0])
		}
	}
	for _, c := range []Codec{"json", "protobuf", "nope"} {
		if p, err := b.AppendEncode([]byte("x"), c); err == nil || p != nil {
			t.Errorf("AppendEncode(%q) = %q, %v; want a refusal", c, p, err)
		}
	}
}

func TestBinaryRoundTripSniffed(t *testing.T) {
	b := Batch{Node: 7, T0: 12.345, Dt: 0.02, Samples: []float64{360, 360, 1890.25, 1890.25, 420}}
	bin, err := b.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if bin[0] != binMagic || bin[1] != binVersion {
		t.Fatalf("frame header = %x", bin[:2])
	}
	got, err := DecodeBatch(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != b.Node || len(got.Samples) != len(b.Samples) {
		t.Fatalf("round trip = %+v", got)
	}
	for i, s := range b.Samples {
		if got.Samples[i] != s {
			t.Errorf("sample %d = %v, want %v (watts must be exact)", i, got.Samples[i], s)
		}
	}
	if math.Abs(got.T0-b.T0) > 1.0/wire.TickHz {
		t.Errorf("T0 = %v, want %v", got.T0, b.T0)
	}
}

func TestBinarySingleSample(t *testing.T) {
	b := Batch{Node: 0, T0: -2.5, Dt: 3e-4, Samples: []float64{777.5}}
	payload, err := b.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples[0] != 777.5 || math.Abs(got.T0-b.T0) > 1e-7 || math.Abs(got.Dt-b.Dt) > 1e-7 {
		t.Errorf("round trip = %+v", got)
	}
}

// Property: random non-uniform batches round-trip through the binary
// codec with exact watts and timestamps within the tick quantisation of
// the encoded truth (one tick at each reconstruction boundary).
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const tick = 1.0 / wire.TickHz
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(700)
		b := Batch{
			Node: rng.Intn(1 << 16),
			// Deliberately off-grid T0 and Dt: negative times, sub-tick
			// fractions, rates from 2 S/s to 1 MS/s.
			T0:      (rng.Float64() - 0.25) * 1e4,
			Dt:      math.Pow(10, -6+rng.Float64()*5.7) * (1 + rng.Float64()),
			Samples: make([]float64, n),
		}
		level := 360 + rng.Float64()*1500
		for i := range b.Samples {
			if rng.Intn(50) == 0 {
				level = 360 + rng.Float64()*1500 // job edge
			}
			b.Samples[i] = level + float64(rng.Intn(8))*0.146484375 // ADC codes
		}
		bin, err := b.AppendEncode(nil, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := DecodeBatch(bin)
		if err != nil {
			t.Fatalf("trial %d: binary decode: %v", trial, err)
		}
		if fromBin.Node != b.Node || len(fromBin.Samples) != len(b.Samples) {
			t.Fatalf("trial %d: shape mismatch: %+v vs %+v", trial, fromBin, b)
		}
		for i := range b.Samples {
			if fromBin.Samples[i] != b.Samples[i] {
				t.Fatalf("trial %d: sample %d: decoded %v != encoded %v",
					trial, i, fromBin.Samples[i], b.Samples[i])
			}
			tj := b.T0 + float64(i)*b.Dt
			tb := fromBin.T0 + float64(i)*fromBin.Dt
			// Encode quantises each stamp to the grid (±half a tick) and
			// decode linearises through the two endpoint ticks (±half a
			// tick each): 2 ticks bounds the reconstruction.
			if math.Abs(tb-tj) > 2*tick {
				t.Fatalf("trial %d: timestamp %d off by %v s (> 2 ticks): decoded %v encoded %v",
					trial, i, tb-tj, tb, tj)
			}
		}
	}
}

func TestDecodeBatchIntoReusesScratch(t *testing.T) {
	b := Batch{Node: 3, T0: 1, Dt: 0.02, Samples: []float64{500, 500, 510}}
	payload, err := b.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, 0, 64)
	got, err := DecodeBatchInto(payload, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Samples[0] != &scratch[:1][0] {
		t.Error("decode did not reuse the scratch backing array")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBatchInto(payload, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state binary decode = %v allocs/op, want 0", allocs)
	}
}

func TestDecodeBinaryCorrupt(t *testing.T) {
	good, err := Batch{Node: 2, T0: 5, Dt: 0.01, Samples: []float64{100, 110, 120, 130}}.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"magic only":     {binMagic},
		"bad version":    {binMagic, 0x7F, 0x01},
		"header only":    good[:4],
		"truncated body": good[:len(good)-2],
		"zero dt":        {binMagic, binVersion, 0x01, 0x01, 0x00, 0x00},
		"huge count":     {binMagic, binVersion, 0x01, 0xFF, 0xFF, 0xFF, 0x7F, 0x01, 0x00},
		"not a frame":    []byte("not a batch"),
	}
	// A frame is well-formed bit for bit and still refused when a sample
	// is not a finite number: appendBinary skips the encoder's validation,
	// as a foreign or faulty publisher would.
	for name, samples := range map[string][]float64{
		"nan first sample": {math.NaN(), 100, 100, 100},
		"nan and inf":      {100, math.NaN(), math.Inf(1), 100},
		"-inf last sample": {100, 110, 120, math.Inf(-1)},
		"payload nan":      {100, math.Float64frombits(0x7FF0000000000001), 100},
	} {
		cases[name] = Batch{Node: 2, T0: 5, Dt: 0.01, Samples: samples}.appendBinary(nil)
	}
	for name, payload := range cases {
		if _, err := DecodeBatch(payload); err == nil {
			t.Errorf("%s: decode should error", name)
		}
	}
	// Flipping any single byte must never panic; it may or may not error.
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x55
		_, _ = DecodeBatch(mut)
	}
}

// FuzzDecodeBatch drives the batch decoder with arbitrary payloads: it
// must never panic, never accept a payload that does not open with the
// frame magic, never return a batch that fails validation or holds a
// sample that is not finite, must agree with the header-only readers
// (PayloadSamples, PayloadTickInfo) on anything it accepts, and must
// round-trip it. The JSON seeds are text a foreign publisher might send:
// they must be refused.
func FuzzDecodeBatch(f *testing.F) {
	seed := []Batch{
		{Node: 0, T0: 0, Dt: 0.02, Samples: []float64{360}},
		{Node: 44, T0: 123.456, Dt: 2e-5, Samples: []float64{360, 360, 1890, 1890, 420.5}},
	}
	for _, b := range seed {
		bin, _ := b.AppendEncode(nil, CodecBinary)
		jsn, _ := json.Marshal(b)
		f.Add(bin)
		f.Add(jsn)
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, binVersion})
	f.Add([]byte(`{"node":1,"t0":0,"dt":0.5,"p":[1,2]}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		if payload[0] != binMagic {
			t.Fatalf("accepted a payload opening with %#x", payload[0])
		}
		if verr := b.Validate(); verr != nil {
			t.Fatalf("accepted invalid batch %+v: %v", b, verr)
		}
		if n := PayloadSamples(payload); n != len(b.Samples) {
			t.Fatalf("PayloadSamples = %d, decoded %d samples", n, len(b.Samples))
		}
		if node, oldest, newest, ok := PayloadTickInfo(payload); !ok || node != b.Node || newest < oldest {
			t.Fatalf("PayloadTickInfo = node %d, ticks %d..%d, ok %v; decoded node %d", node, oldest, newest, ok, b.Node)
		}
		// Whatever decoded must re-encode and decode to the same samples.
		re, err := b.AppendEncode(nil, CodecBinary)
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		b2, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(b2.Samples) != len(b.Samples) || b2.Node != b.Node {
			t.Fatalf("re-round-trip mismatch: %+v vs %+v", b2, b)
		}
		for i := range b.Samples {
			if math.IsNaN(b.Samples[i]) || math.IsInf(b.Samples[i], 0) {
				t.Fatalf("accepted sample %d = %v", i, b.Samples[i])
			}
			if b2.Samples[i] != b.Samples[i] {
				t.Fatalf("sample %d: %v != %v", i, b2.Samples[i], b.Samples[i])
			}
		}
	})
}

// TestSniffJSONWhitespace: a well-formed JSON batch, with or without
// leading whitespace, does not open with the frame magic, so every entry
// point refuses it.
func TestSniffJSONWhitespace(t *testing.T) {
	for _, payload := range []string{
		`{"node":1,"t0":0,"dt":0.5,"p":[1,2]}`,
		`  {"node":1,"t0":0,"dt":0.5,"p":[1,2]}`,
	} {
		if b, err := DecodeBatch([]byte(payload)); err == nil {
			t.Errorf("DecodeBatch(%q) = %+v, want a refusal", payload, b)
		}
		if n := PayloadSamples([]byte(payload)); n != 0 {
			t.Errorf("PayloadSamples(%q) = %d, want 0", payload, n)
		}
		if _, _, _, ok := PayloadTickInfo([]byte(payload)); ok {
			t.Errorf("PayloadTickInfo(%q) ok, want a refusal", payload)
		}
	}
}

// gridFrame hand-builds a version-1 frame on a uniform tick grid (every
// timestamp delta-of-delta zero) with constant watts, so the header can
// carry a grid the encoder would never produce from float seconds.
func gridFrame(tick0, dtTicks int64, n int) []byte {
	var w wire.BitWriter
	w.Reset([]byte{binMagic, binVersion})
	w.WriteUvarint(9)
	w.WriteUvarint(uint64(n))
	w.WriteUvarint(uint64(dtTicks))
	w.WriteUvarint(wire.Zigzag(tick0))
	for i := 1; i < n; i++ {
		w.WriteDoD(0)
	}
	bits := math.Float64bits(500)
	w.WriteBits(bits, 64)
	var xs wire.XORState
	for i := 1; i < n; i++ {
		w.WriteXOR(bits, bits, &xs)
	}
	return w.Bytes()
}

// TestTickGridOverflowRefused: a header whose last grid tick,
// tick0 + (n-1)·dt, does not fit in int64 is refused by every entry
// point. Unchecked, the 6-sample frame decoded with a wrapped last tick
// (Dt 9.22e10 s where the header says 4.61e11 s) and the 3-sample
// frame's PayloadTickInfo reported newest = math.MinInt64.
func TestTickGridOverflowRefused(t *testing.T) {
	const dt = int64(1) << 62
	for _, c := range []struct {
		name  string
		tick0 int64
		dt    int64
		n     int
	}{
		{"6 samples", 0, dt, 6},
		{"3 samples", 0, dt, 3},
		{"one tick past max", dt, dt, 2},
	} {
		payload := gridFrame(c.tick0, c.dt, c.n)
		if b, err := DecodeBatch(payload); err == nil {
			t.Errorf("%s: DecodeBatch accepted %+v", c.name, b)
		}
		if n := PayloadSamples(payload); n != 0 {
			t.Errorf("%s: PayloadSamples = %d, want 0", c.name, n)
		}
		if node, oldest, newest, ok := PayloadTickInfo(payload); ok {
			t.Errorf("%s: PayloadTickInfo = node %d, ticks %d..%d, ok", c.name, node, oldest, newest)
		}
	}
	// Grids that end exactly at either edge of int64 still fit.
	for _, c := range []struct {
		tick0, dt, newest int64
		n                 int
	}{
		{dt - 1, dt, math.MaxInt64, 2},
		{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 3},
	} {
		payload := gridFrame(c.tick0, c.dt, c.n)
		if _, err := DecodeBatch(payload); err != nil {
			t.Errorf("grid %d + %d·%d: %v", c.tick0, c.n-1, c.dt, err)
		}
		if _, oldest, newest, ok := PayloadTickInfo(payload); !ok || oldest != c.tick0 || newest != c.newest {
			t.Errorf("grid %d + %d·%d: PayloadTickInfo = %d..%d, ok %v; want %d..%d", c.tick0, c.n-1, c.dt, oldest, newest, ok, c.tick0, c.newest)
		}
	}
}

// TestBinaryBeatsJSONOnWire pins the E17 transport claim on a batch a
// real EG-class monitor chain produced (ADC quantisation and noise
// included): the binary frame carries it in >= 4x fewer bytes than the
// batch's JSON text (encoding/json over Batch's tags) and decodes >= 5x
// faster (~11x and ~16x measured). Decode speed is compared head to head
// in one process on the fastest of five timings per format, so a
// scheduling hiccup cannot fake a slow side.
func TestBinaryBeatsJSONOnWire(t *testing.T) {
	const n, rate = 512, 50.0
	mon, err := monitors.NewBuiltin(monitors.EnergyGateway, rate, 1)
	if err != nil {
		t.Fatal(err)
	}
	sig := sensor.Sum{sensor.Const(360), sensor.Square{Low: 0, High: 1530, Period: 4, Duty: 0.6}}
	obsd, err := mon.Observe(sig, 0, n/rate)
	if err != nil {
		t.Fatal(err)
	}
	if len(obsd) < n {
		t.Fatalf("observed %d samples, want %d", len(obsd), n)
	}
	batch := Batch{Node: 7, T0: obsd[0].T, Dt: obsd[1].T - obsd[0].T}
	for _, s := range obsd[:n] {
		batch.Samples = append(batch.Samples, s.P)
	}
	jsn, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := batch.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(jsn) < 4*len(bin) {
		t.Errorf("binary %d B vs JSON %d B for %d samples: want >= 4x fewer wire bytes", len(bin), len(jsn), n)
	}

	scratch := make([]float64, 0, n)
	fastest := func(decode func() (Batch, error)) time.Duration {
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for r := 0; r < 100; r++ {
				got, err := decode()
				if err != nil {
					t.Fatal(err)
				}
				scratch = got.Samples[:0]
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	binT := fastest(func() (Batch, error) { return DecodeBatchInto(bin, scratch) })
	jsonT := fastest(func() (Batch, error) {
		got := Batch{Samples: scratch[:0]}
		if err := json.Unmarshal(jsn, &got); err != nil {
			return Batch{}, err
		}
		return got, got.Validate()
	})
	if jsonT < 5*binT {
		t.Errorf("binary decode %v vs JSON %v per 100 batches: want >= 5x faster", binT, jsonT)
	}
}
