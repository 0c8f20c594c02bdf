package main

import (
	"math"
	"time"
)

// The reference box is a shared virtual machine whose host changes the
// speed of both vCPUs for seconds to minutes at a time: across ten
// 28-second runs of one workload the CPU spent per unit of work spread
// (interquartile) by 9–16 % in a quiet hour and by 30–37 % in a busy
// one, and a single 150-s run of fabric-1k swung between 3.0 and 4.5 µs
// per sample from round to round. No run length the driver allows
// averages that out, so every time the benchmark reports is expressed at
// a fixed machine speed instead.
//
// Between operations the measured loop runs a short slice of a fixed
// reference kernel (below). A round's slices against the kernel's
// nominal duration give that round's speed factor, and the round's times
// are multiplied by it. The kernel belongs to the benchmark, not to the
// program, so a change to the program moves a normalised time exactly as
// it moves the raw one, while a change in the host's speed largely
// cancels. README.md has the study behind the constants.

// sliceIters sizes one slice of the reference kernel: about 2.5 ms.
const sliceIters = 1_000_000

// nominalSliceMS is what one slice takes on the reference box when the
// host leaves it alone.
const nominalSliceMS = 2.5

// sensitivity is how much harder the host's slow-downs hit the program
// than the kernel, as an exponent: when slices take 10 % longer the
// program's work takes about 21 % longer. The kernel is one dependent
// chain inside the L1 cache, which a busy sibling hyperthread or a
// crowded shared cache slows far less than the program's wide,
// memory-heavy code. Regressing log cost per unit on log slice time,
// round by round, gave slopes of 1.5 to 3.0 on every workload whenever
// the host was busy enough to measure one (r = 0.7 to 0.97); 2 held the
// spread of ten runs at or below 11 % in all three sessions studied,
// against 24 % with exponent 1 and 37 % raw.
const sensitivity = 2

// speedFactor turns a round's slice durations (ms) into its speed
// factor: 1 at nominal speed, below 1 when the machine ran slow. The
// mean, not the median: a burst that stretches a few slices stretched
// the operations beside them too.
func speedFactor(slicesMS []float64) float64 {
	if len(slicesMS) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range slicesMS {
		sum += v
	}
	return math.Pow(nominalSliceMS*float64(len(slicesMS))/sum, sensitivity)
}

var (
	sliceBuf  [2048]uint64 // 16 KiB: the kernel stays in the L1 cache
	sliceSink uint64
)

// slice runs the reference kernel once on the calling goroutine and
// returns how long it took: a xorshift generator scattering into and
// gathering from a small table — integer work with dependent loads and
// stores and no system calls, allocation or shared state.
func slice() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	var s uint64
	const mask = uint64(len(sliceBuf) - 1)
	for range sliceIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		sliceBuf[j] += x
		s += sliceBuf[(j*7)&mask]
	}
	sliceSink += s
	return time.Since(t)
}
