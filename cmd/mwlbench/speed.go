package main

import (
	"math/rand"
	"slices"
	"time"
)

// The 2-vCPU VMs this benchmark is run on change speed by 20–70 % for
// minutes at a time, and by 10 % from one second to the next, while
// nothing else runs in them: the host, not the code, sets the pace. No
// number of rounds inside a 25 s run removes a slowdown that outlasts
// the run, so every timing of an untraced run, set-up time included, is
// scaled to a reference speed. A fixed kernel owned by the benchmark,
// with the solver's mix of hashing, sorting and pointer chasing over a
// few megabytes, is timed a fixed number of times spread over each
// round; the round's slowdown is the fastest of those times over
// refKernel, and its times are divided by it. On the reference machine
// at full speed the slowdown is 1 and a reported time is the time
// measured. A change to the code under test moves the rounds but not the
// kernel, so it shows in full. The kernel allocates nothing, so the
// garbage a round leaves does not slow it and a change to the solver's
// allocation is not scaled away.
//
// The in-process workloads run the kernel between operations. The serve
// workload runs it in pauses between segments of a round, with both
// connections idle and replication drained, since while the replicas
// serve the kernel would share the processors with them and read their
// load.

// refKernel is the kernel's fastest time on the reference machine
// (2-vCPU Xeon @ 2.1 GHz, nproc 2) at full speed. Changing the kernel or
// this constant rescales every timing; compare only runs of the same
// kernel.
const refKernel = 6400 * time.Microsecond

// speedSamples is how many times the kernel runs in a round.
const speedSamples = 24

// kernelSize is the kernel's element count.
const kernelSize = 1 << 15

// speedKernel holds the kernel's memory, allocated once.
var speedKernel = struct {
	rnd  *rand.Rand
	m    map[uint64]int32
	keys []uint64
	next []int32
	vals []uint64
	sink uint64
}{
	rnd:  rand.New(rand.NewSource(1)),
	m:    make(map[uint64]int32, 50000),
	keys: make([]uint64, kernelSize),
	next: make([]int32, kernelSize),
	vals: make([]uint64, kernelSize),
}

// kernel does a fixed amount of work without allocating and returns how
// long it took.
func kernel() time.Duration {
	k := &speedKernel
	t := time.Now()
	k.rnd.Seed(1)
	clear(k.m)
	for i := range k.keys {
		x := k.rnd.Uint64()
		k.m[x%50000] += int32(i)
		k.keys[i], k.vals[i] = x, x
	}
	// Chain the elements in a scattered order for the pointer chase.
	var j int32
	for range k.next {
		n := int32((uint64(j)*2654435761 + 12345) % kernelSize)
		k.next[j], j = n, n
	}
	slices.Sort(k.keys)
	var s uint64
	for shift := 0; shift < 4; shift++ {
		p := int32(0)
		for range k.vals {
			s += k.vals[p] >> shift
			p = k.next[p]
		}
		for _, x := range k.keys {
			s ^= uint64(k.m[x%50000])
		}
	}
	k.sink += s
	return time.Since(t)
}

// speedProbe collects one round's kernel times.
type speedProbe []time.Duration

// sample runs the kernel once.
func (p *speedProbe) sample() { *p = append(*p, kernel()) }

// slowdown is the round's slowdown against the reference: its fastest
// kernel time over refKernel.
func (p speedProbe) slowdown() float64 {
	return float64(slices.Min(p)) / float64(refKernel)
}

// sampleAt reports whether the kernel runs before operation i of a round
// of n, so that speedSamples runs (n if fewer) spread evenly over it.
func sampleAt(i, n int) bool { return i*speedSamples%n < speedSamples }
