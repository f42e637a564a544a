package main

// Machine-speed normalization. The small VMs this benchmark runs on
// drift in throughput by ±15% and more over minutes, as neighbours come
// and go, which would swamp any real change in a latency. Every run
// therefore times a fixed reference kernel at its round boundaries and
// reports its time-valued metrics at reference speed: scaled by
// refNominalMS over the kernel's median time in that run. The kernel
// shares no code with the program, so a change to the program moves
// the scaled metrics in full while a change in machine speed largely
// cancels. The raw, unscaled values are printed beside them.

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// refNominalMS is the reference kernel's median time on the 2-vCPU
// Intel Xeon VM the benchmark was calibrated on; scaled metrics read as
// milliseconds on that machine at its median speed.
const refNominalMS = 9.0

const (
	refNodes  = 1 << 14
	refDegree = 6
	refRoots  = 16
	// refBatch is how many kernel samples one sample call takes. Single
	// samples on a shared host spread by ±20% around their median, so a
	// run needs many of them for a steady median.
	refBatch = 8
)

// refGraph is the kernel's input, a fixed random graph in compressed
// form (node v's successors are edges[v*refDegree:(v+1)*refDegree]),
// built once so that no sample pays for allocation or page faults.
var refGraph = sync.OnceValue(func() []int32 {
	rng := rand.New(rand.NewSource(1))
	edges := make([]int32, refNodes*refDegree)
	for i := range edges {
		edges[i] = int32(rng.Intn(refNodes))
	}
	return edges
})

// refScratch is the kernel's reusable working memory.
type refScratch struct {
	seen  []uint32 // seen[v] == epoch marks v visited in this search
	queue []int32
	epoch uint32
}

// refKernel runs breadth-first searches over refGraph: pointer-chasing,
// like the analysis pipeline's propagation, but with no allocation,
// maps or GC, so its time moves with the machine and not with the heap.
func refKernel(s *refScratch) {
	edges := refGraph()
	if s.seen == nil {
		s.seen = make([]uint32, refNodes)
		s.queue = make([]int32, 0, refNodes)
	}
	reached := 0
	for root := int32(0); root < refRoots; root++ {
		s.epoch++
		s.seen[root] = s.epoch
		q := append(s.queue[:0], root)
		for head := 0; head < len(q); head++ {
			v := q[head]
			for _, w := range edges[int(v)*refDegree : int(v+1)*refDegree] {
				if s.seen[w] != s.epoch {
					s.seen[w] = s.epoch
					q = append(q, w)
				}
			}
		}
		reached += len(q)
	}
	if reached < refRoots {
		panic("reference kernel reached nothing")
	}
}

// speedProbe collects reference kernel timings over a run.
type speedProbe struct {
	samples []float64
	scratch refScratch
}

// sample times refBatch runs of the kernel back to back, after one
// collection so that no GC cycle of the workload overlaps them.
func (p *speedProbe) sample() {
	if p.scratch.seen == nil {
		refKernel(&p.scratch) // untimed: faults in the graph and scratch
	}
	runtime.GC()
	for i := 0; i < refBatch; i++ {
		t := time.Now()
		refKernel(&p.scratch)
		p.samples = append(p.samples, ms(time.Since(t)))
	}
}

// scale is the factor that turns a duration measured in this run into
// one at reference speed.
func (p *speedProbe) scale() float64 {
	if m := median(p.samples); m > 0 {
		return refNominalMS / m
	}
	return 1
}
