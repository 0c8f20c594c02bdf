package energyserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"davide/internal/tsdb"
)

// adcWatts is a reading on the monitors' grid: a 12-bit code × 3000/4096 W,
// boxcar-averaged over four conversions.
func adcWatts(code int) float64 { return float64(code) * 3000 / 4096 / 4 }

// reportShapes are window reports shaped like the three kinds the store
// hands the handler — raw samples, 1-s buckets, 60-s buckets — at the
// given point count, plus one whose bounds never repeat a neighbour's, one
// whose watts walk the ADC grid and one whose raw samples keep to the few
// dozen ADC levels a node's draw actually sits on.
func reportShapes(n int) map[string]WindowReport {
	raw := make([]tsdb.Point, n)
	levels := make([]tsdb.Point, n)
	sec := make([]tsdb.Point, n)
	minute := make([]tsdb.Point, n)
	gaps := make([]tsdb.Point, n)
	adc := make([]tsdb.Point, n)
	for i := range raw {
		w := 360 + 1530*math.Abs(math.Sin(float64(i)/7))
		t := 7200 + float64(i)*0.25
		raw[i] = tsdb.Point{T0: t, T1: t, MeanW: w, MaxW: w}
		// A fully covered 1-s bucket: mean == energy, max above both.
		sec[i] = tsdb.Point{T0: float64(i), T1: float64(i + 1), MeanW: w, MaxW: w + 12.5, EnergyJ: w}
		// A 60-s bucket, partly covered: all five values distinct.
		minute[i] = tsdb.Point{T0: 60 * float64(i), T1: 60 * float64(i+1), MeanW: w, MaxW: 1.1 * w, EnergyJ: w * 59.75}
		// Empty buckets skipped between points (T0 != previous T1),
		// off-grid bounds, negative time, max == mean == energy.
		g := -100.125 + 3.3*float64(i)
		gaps[i] = tsdb.Point{T0: g, T1: g + 1.1, MeanW: w, MaxW: w, EnergyJ: w}
		a := adcWatts((i * 977) % 4096)
		adc[i] = tsdb.Point{T0: t, T1: t + 0.25, MeanW: a, MaxW: a + adcWatts(1), EnergyJ: a}
		l, lt := adcWatts(1536+8*(i*7%24)), 7200+float64(i)/1000
		levels[i] = tsdb.Point{T0: lt, T1: lt, MeanW: l, MaxW: l}
	}
	head := func(res float64, pts []tsdb.Point) WindowReport {
		return WindowReport{Node: 44, T0: 7200, T1: 7245.5, Res: res, EnergyJ: 50227.34159, MeanW: 50227.34159 / 45.5, Points: pts}
	}
	return map[string]WindowReport{
		"raw": head(0, raw), "1s": head(1, sec), "60s": head(60, minute), "gaps": head(0.25, gaps), "adc": head(1, adc),
		"levels": head(0, levels),
	}
}

// TestAppendWindowReportMatchesJSON holds the hand encoder to
// encoding/json byte for byte: every client, the cache's
// cached == nocache=1 contract and the goldens see the bytes they always
// saw.
func TestAppendWindowReportMatchesJSON(t *testing.T) {
	check := func(name string, rep WindowReport) {
		t.Helper()
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := appendWindowReport([]byte("prefix"), &rep)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s: err %v\n got %s\nwant prefix%s", name, err, got, want)
		}
	}
	for _, n := range []int{0, 1, 5, 180} {
		for name, rep := range reportShapes(n) {
			check(name+"/"+strconv.Itoa(n), rep)
		}
	}
	// A nil slice is null, an empty one is [].
	check("nil points", WindowReport{Node: -3, T0: math.Copysign(0, -1), T1: 1e21, Res: 1e-7, EnergyJ: 9.5e-7, MeanW: -1e-9})
	check("empty points", WindowReport{Points: []tsdb.Point{}})
	// A zero T1 followed by a zero T0, and -0 beside +0: same value,
	// different bits, different bytes.
	check("zeros", WindowReport{Points: []tsdb.Point{{}, {T1: math.Copysign(0, -1)}, {MeanW: math.Copysign(0, -1)}}})

	// The shapes that would catch a memo trusting the wrong slot: two
	// values sharing one, interleaved; +0 and -0 throughout one body; and
	// more distinct values than slots, then a repeat of the evicted first.
	a, b := collidingPair()
	check("collision", WindowReport{T0: a, T1: b, Res: a, EnergyJ: b, MeanW: a,
		Points: []tsdb.Point{{T0: b, T1: a, MeanW: b, MaxW: a, EnergyJ: b}, {T0: a, T1: b, MeanW: a, MaxW: b, EnergyJ: a}}})
	neg := math.Copysign(0, -1)
	check("signed zeros", WindowReport{T0: 0, T1: neg, Res: 0, EnergyJ: neg, MeanW: 0,
		Points: []tsdb.Point{{T0: neg, T1: 0, MeanW: neg, MaxW: 0, EnergyJ: neg}, {T0: 0, T1: neg, MeanW: 0, MaxW: neg}}})
	var evict []tsdb.Point
	for i := 0; i < 1<<memoBits; i++ {
		w := adcWatts(i)
		evict = append(evict, tsdb.Point{T0: float64(i) + 0.5, T1: float64(i) + 1.25, MeanW: w, MaxW: w + 0.1, EnergyJ: w * 1.5})
	}
	check("eviction", WindowReport{Points: append(evict, evict[0], evict[1<<memoBits-1])})

	// NaN or ±Inf anywhere is an error, as it is for encoding/json.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 10; field++ {
			rep := reportShapes(5)["60s"]
			*[]*float64{&rep.T0, &rep.T1, &rep.Res, &rep.EnergyJ, &rep.MeanW,
				&rep.Points[0].T0, &rep.Points[2].T1, &rep.Points[4].MeanW, &rep.Points[1].MaxW, &rep.Points[3].EnergyJ}[field] = bad
			if _, err := json.Marshal(rep); err == nil {
				t.Fatalf("json.Marshal accepted %v in field %d", bad, field)
			}
			if _, err := appendWindowReport(nil, &rep); err == nil {
				t.Errorf("%v in field %d: no error", bad, field)
			}
		}
	}
}

// collidingPair returns two ADC-grid watt values of different bits whose
// forms share one memo slot.
func collidingPair() (float64, float64) {
	first := make(map[uint64]float64)
	for code := 0; ; code++ {
		w := adcWatts(code)
		slot := memoSlot(math.Float64bits(w))
		if v, ok := first[slot]; ok {
			return v, w
		}
		first[slot] = w
	}
}

// TestWindowNonFiniteStoreValueIs500 covers the one way a non-finite value
// still reaches the encoder — out of the store, which accepts whatever a
// sensor sent: the reply is a 500, as it was under encoding/json, and
// nothing is cached.
func TestWindowNonFiniteStoreValueIs500(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)
	db.Append(0, 600, math.Inf(1))
	db.Append(0, 601, 100)
	for i := 0; i < 2; i++ {
		rr := doReq(s, "", "/v1/nodes/0/window?t0=590&t1=610")
		if rr.Code != http.StatusInternalServerError || rr.Header().Get("X-Cache") != "" {
			t.Fatalf("read %d: %d %q %s", i, rr.Code, rr.Header().Get("X-Cache"), rr.Body)
		}
	}
}

var grids = func() []float64 {
	q := []float64{1, 4, 1000}
	for j := 1; j <= 20; j++ {
		q = append(q, math.Ldexp(1, j))
	}
	return q
}()

// FuzzAppendFloat is the differential that lets appendFloat's exact and
// short-decimal tiers exist: for every finite float64 its bytes are
// json.Marshal's.
func FuzzAppendFloat(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 1, -1, 1e15, 1e15 - 1, 1e15 + 2, 999999999999999.9, 99999999999999.98,
		0.001, 0.0005, 0.0015, 1e-6, 9.99e-7, 1e-7, 1e21, 9.999999999999999e20, 1e22, 0.1, 0.3, 0.1 + 0.2,
		2.675, 1.005, 123456789012345.6, 12345678901234.56, 4503599627370496.5, 9007199254740993,
		5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-9, 1.5e-10, 7200.25, 86399.999, 360.4, 1890.123,
	}
	for k := -2000; k <= 2000; k += 37 {
		seeds = append(seeds, float64(k)/4, float64(k)/1000, float64(k)/8+1e12)
	}
	// The exact tier's edges: the last integers with an ulp of 1, the 'e'
	// boundary, powers of two (a narrower interval below than above) beside
	// both neighbours, and for each count k of fraction digits the fullest
	// and emptiest odd mantissas with one spare bit fewer than 5^(k-1)
	// needs and with just enough.
	seeds = append(seeds, 1<<53-1, 1<<53, 1<<53+2, 1<<52+1, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1))
	for j := -21; j <= 12; j++ {
		p := math.Ldexp(1, j)
		seeds = append(seeds, p, math.Nextafter(p, 0), math.Nextafter(p, 2*p), -p)
	}
	for k := 1; k <= 19; k++ {
		need := bits.Len64(pow5[k-1]) - 1 // spare bits from which 5^(k-1) < 2^(spare+1)
		for _, spare := range []int{need - 1, need} {
			if spare < 0 {
				continue
			}
			width := 53 - spare
			seeds = append(seeds,
				math.Ldexp(float64(uint64(1)<<width-1), -k),
				math.Ldexp(float64(uint64(1)<<(width-1)+1), -k))
		}
	}
	for _, v := range seeds {
		f.Add(math.Float64bits(v))
	}
	for code := 0; code < 4096; code++ {
		f.Add(math.Float64bits(adcWatts(code)))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(v)
		if !finite(v) {
			if err == nil {
				t.Fatalf("json.Marshal(%v) = %s, want an error", v, want)
			}
			if _, err := appendWindowReport(nil, &WindowReport{MeanW: v}); err == nil {
				t.Fatalf("appendWindowReport accepted %v", v)
			}
			return
		}
		got := appendFloat(nil, v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#016x) = %s, json.Marshal = %s (%v)", bits, got, want, err)
		}
		// The same value through the short-decimal grid and the binary
		// grids 2^-1 … 2^-20: most random bit patterns reach neither tier,
		// these always do when one applies.
		for _, q := range grids {
			g := math.Round(math.Mod(v, 1e15)*q) / q
			want, _ := json.Marshal(g)
			if got := appendFloat(nil, g); !bytes.Equal(got, want) {
				t.Fatalf("appendFloat(%#016x) = %s, json.Marshal = %s", math.Float64bits(g), got, want)
			}
		}
	})
}

// FuzzAppendWindowReport holds the whole body, memo included, to
// json.Marshal: every header and point field is drawn from a palette of at
// most eight raw bit patterns, so repeats, slot collisions and evictions
// are the rule, and a non-finite value anywhere must be refused.
func FuzzAppendWindowReport(f *testing.F) {
	raw := func(vs ...float64) []byte {
		var p []byte
		for _, v := range vs {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
		return p
	}
	a, b := collidingPair()
	f.Add(int64(44), raw(a, b), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add(int64(0), raw(0, math.Copysign(0, -1)), []byte{0, 1, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add(int64(-3), raw(7200.25, adcWatts(977), 1e21, 5e-324, 0.1, 1e-7, -1.5, 86399.999), []byte{7, 6, 5, 4, 3, 2, 1, 0, 9, 200, 31})
	f.Add(int64(1), raw(1, math.NaN()), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(int64(1), raw(math.Inf(-1)), []byte{})
	f.Add(int64(1), []byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, node int64, palette, picks []byte) {
		var pal []float64
		for len(palette) >= 8 && len(pal) < 8 {
			pal = append(pal, math.Float64frombits(binary.LittleEndian.Uint64(palette)))
			palette = palette[8:]
		}
		if len(pal) == 0 {
			pal = []float64{0}
		}
		next := func() float64 {
			if len(picks) == 0 {
				return pal[0]
			}
			v := pal[int(picks[0])%len(pal)]
			picks = picks[1:]
			return v
		}
		rep := WindowReport{Node: int(node), T0: next(), T1: next(), Res: next(), EnergyJ: next(), MeanW: next()}
		if len(picks) > 0 {
			rep.Points = make([]tsdb.Point, (len(picks)+4)/5)
			for i := range rep.Points {
				rep.Points[i] = tsdb.Point{T0: next(), T1: next(), MeanW: next(), MaxW: next(), EnergyJ: next()}
			}
		}
		want, err := json.Marshal(rep)
		got, gotErr := appendWindowReport([]byte("prefix"), &rep)
		if err != nil {
			if gotErr == nil {
				t.Fatalf("appendWindowReport accepted what json.Marshal refused (%v): %s", err, got)
			}
			return
		}
		if gotErr != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("err %v\n got %s\nwant prefix%s", gotErr, got, want)
		}
	})
}

// BenchmarkAppendWindowReport times the encoder alone on each shape at
// 1000 points, the layer the window query's cold path spends most in.
func BenchmarkAppendWindowReport(b *testing.B) {
	shapes := reportShapes(1000)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := shapes[name]
		b.Run(name, func(b *testing.B) {
			var dst []byte
			var err error
			for i := 0; i < b.N; i++ {
				if dst, err = appendWindowReport(dst[:0], &rep); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rep.Points)), "ns/point")
		})
	}
}

// FuzzWindowQuery throws query strings a client could send at the three
// store-backed routes. Whatever the parameters say, the service must not
// panic, must not answer 5xx (a bad parameter is the client's error), must
// answer promptly — a window is never worth more work than the data it
// holds — and every 200 must carry valid JSON.
func FuzzWindowQuery(f *testing.F) {
	const queryDeadline = 2 * time.Second // the slowest honest query here takes a millisecond
	for _, s := range [][6]string{
		{"0", "0", "500", "1", "", ""},
		{"1", "12.5", "80", "", "", ""},
		{"0", "0", "4e9", "1", "", ""},
		{"0", "0", "1e300", "10", "", ""},
		{"0", "-1e300", "1e300", "1", "", ""},
		{"2", "NaN", "NaN", "", "0,NaN,10", "a,b"},
		{"3", "0", "Inf", "Inf", "NaN,5", ""},
		{"1", "0", "+Inf", "-0", "5", ""},
		{"1", "10", "110", "10", "10,60,110", "a,b"},
		{"1", "", "", "0x1p-2", "1e400,2", "a"},
		{"-1", "5", "1", "7", "3,2,1", ",,"},
		{"4611686018427387904", "1_0", "2", "1e-320", " 1 , 2 ", "x"},
		{"99", "0", "1", "1", "0,1e308,1.7e308", "a,b"},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	b, _ := testBackend(f)
	srv := NewServer(Options{})
	srv.Bind(b)
	f.Fuzz(func(t *testing.T, id, t0, t1, res, bounds, names string) {
		esc := url.PathEscape(id)
		if esc == "" || esc == "." || esc == ".." {
			return // the mux redirects or 404s these before any handler runs
		}
		q := url.Values{"t0": {t0}, "t1": {t1}, "bounds": {bounds}, "names": {names}}
		if res != "" {
			q.Set("res", res)
		}
		for _, route := range []string{"/v1/nodes/%/window", "/v1/nodes/%/phases", "/v1/jobs/%/phases", "/v1/racks/%/power"} {
			path := strings.Replace(route, "%", esc, 1) + "?" + q.Encode()
			// Waited for from outside, so a handler that never returns is a
			// failure with the query in it, not a silent fuzz-time expiry.
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- doReq(srv, "", path) }()
			var rr *httptest.ResponseRecorder
			select {
			case rr = <-done:
			case <-time.After(queryDeadline):
				t.Fatalf("%s: no answer within %v", path, queryDeadline)
			}
			if rr.Code >= 500 {
				t.Fatalf("%s: %d %s", path, rr.Code, rr.Body)
			}
			if rr.Code == http.StatusOK && !json.Valid(rr.Body.Bytes()) {
				t.Fatalf("%s: 200 with invalid JSON: %.200s", path, rr.Body)
			}
		}
	})
}
