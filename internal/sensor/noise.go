package sensor

import "math/rand"

// The lags of math/rand's additive lagged Fibonacci generator:
// o_n = o_{n-lagLong} + o_{n-lagShort} mod 2^64.
const (
	lagLong  = 607
	lagShort = 273
)

// noise is math/rand's default generator as a concrete type, so that the
// synthesis kernel's draws inline instead of going through *rand.Rand and
// the Source interface twice per conversion. Seeded with s, it yields the
// outputs of rand.NewSource(s) and, through norm, the values of
// rand.New(rand.NewSource(s)).NormFloat64, bit for bit.
//
// vec holds one round of lagLong consecutive outputs, o_{r+k} in vec[k],
// and refill replaces it with the next round in place: for k < lagShort
// the tap o_{n-lagShort} is still this round's vec[k+lagLong-lagShort],
// for the rest it is the next round's vec[k-lagShort], already written.
type noise struct {
	vec  [lagLong]uint64
	next int // index in vec of the next output; lagLong when drawn out
}

// seed starts the stream where rand.NewSource(seed) starts it, by drawing
// that source's first lagLong outputs. NewSource's documentation
// guarantees a Source64, whose Uint64 is the raw recurrence output.
func (g *noise) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := range g.vec {
		g.vec[k] = src.Uint64()
	}
	g.next = 0
}

// refill advances vec by one round of lagLong outputs.
func (g *noise) refill() {
	v := &g.vec
	for k := 0; k < lagShort; k++ {
		v[k] += v[k+lagLong-lagShort]
	}
	for k := lagShort; k < lagLong; k++ {
		v[k] += v[k-lagShort]
	}
	g.next = 0
}

// uint64 is the next raw output: rand.Source64.Uint64.
func (g *noise) uint64() uint64 {
	if g.next >= lagLong {
		g.refill()
	}
	x := g.vec[g.next]
	g.next++
	return x
}

// int32 is int32((*rand.Rand).Uint32()): bits 31 to 62 of one output.
func (g *noise) int32() int32 { return int32(uint32(g.uint64() >> 31)) }

// float64 is (*rand.Rand).Float64: a 63-bit output over 2^63, redrawn on
// the one value that rounds up to 1.
func (g *noise) float64() float64 {
	for {
		if f := float64(int64(g.uint64()<<1>>1)) / (1 << 63); f != 1 {
			return f
		}
	}
}
