package main

import (
	"crypto/ed25519"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic("getrusage: " + err.Error())
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// Runtime counters read through runtime/metrics (no stop-the-world).
const (
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmHeapLive     = "/gc/heap/live:bytes"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmTotalMem     = "/memory/classes/total:bytes"
)

// snapshot is the process state at one edge of a measurement window.
type snapshot struct {
	probeUs      float64 // hostProbe at this instant
	at           time.Time
	cpu          time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64 // seconds
	gcCycles     uint64
	totalMem     uint64
}

func takeSnapshot() snapshot {
	s := []metrics.Sample{
		{Name: rmAllocBytes}, {Name: rmAllocObjects}, {Name: rmGCCPU},
		{Name: rmGCCycles}, {Name: rmTotalMem},
	}
	metrics.Read(s)
	// The probe runs before the clock and CPU readings, so its own
	// millisecond falls into the slice that ends here.
	probe := hostProbe()
	return snapshot{
		probeUs:      probe,
		at:           time.Now(),
		cpu:          cpuTime(),
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		gcCycles:     s[3].Value.Uint64(),
		totalMem:     s[4].Value.Uint64(),
	}
}

// heapLive returns the bytes the last completed GC cycle found live.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: rmHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler reads the live-heap gauge ten times a second while a window
// runs. The gauge is what the last finished collection found live; a
// single reading at a saturated deployment catches whatever was in flight
// at that collection and swings by half, the median of a window does not.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB; owned by the goroutine until done closes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.samples = append(h.samples, float64(heapLive())/(1<<20))
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns the median reading.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	if len(h.samples) == 0 {
		return float64(heapLive()) / (1 << 20)
	}
	return median(h.samples)
}

// windowCost is what the process spent over a measured window, per
// committed round. A real-time window is cut into one-second slices: the
// host's CPU speed wanders by a quarter over seconds, so the CPU-bound
// figures are medians over slices, not totals. The simulated window is a
// single slice.
type windowCost struct {
	seconds        float64
	cpuMsPerRound  float64 // median over slices
	mbPerS         float64 // median over slices
	allocKBPerRnd  float64
	allocsPerRound float64
	cpuCores       float64
	gcCPUFraction  float64
	gcCycles       float64
	heapSysMB      float64
	hostVerifyUs   float64 // median host probe over the slice boundaries
}

// costOf derives the window's cost from the snapshots at the slice
// boundaries (one more than slices) and the rounds and payload bytes the
// observer committed in each slice.
func costOf(snaps []snapshot, rounds, bytes []int64) windowCost {
	a, b := snaps[0], snaps[len(snaps)-1]
	var totalRounds int64
	var cpuPerRound, mbPerS []float64
	for i := range rounds {
		totalRounds += rounds[i]
		secs := snaps[i+1].at.Sub(snaps[i].at).Seconds()
		if rounds[i] > 0 {
			cpuPerRound = append(cpuPerRound, (snaps[i+1].cpu-snaps[i].cpu).Seconds()*1e3/float64(rounds[i]))
		}
		if secs > 0 {
			mbPerS = append(mbPerS, float64(bytes[i])/1e6/secs)
		}
	}
	if totalRounds < 1 {
		totalRounds = 1
	}
	secs := b.at.Sub(a.at).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	c := windowCost{
		seconds:        secs,
		cpuMsPerRound:  median(cpuPerRound),
		mbPerS:         median(mbPerS),
		allocKBPerRnd:  float64(b.allocBytes-a.allocBytes) / 1024 / float64(totalRounds),
		allocsPerRound: float64(b.allocObjects-a.allocObjects) / float64(totalRounds),
		gcCycles:       float64(b.gcCycles - a.gcCycles),
		heapSysMB:      float64(b.totalMem) / (1 << 20),
	}
	probes := make([]float64, len(snaps))
	for i, sn := range snaps {
		probes[i] = sn.probeUs
	}
	c.hostVerifyUs = median(probes)
	if secs > 0 {
		c.cpuCores = cpu / secs
	}
	if cpu > 0 {
		c.gcCPUFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	return c
}

// timeOp returns the median per-call time of fn in nanoseconds: rounds
// batches of iters calls each, one clock read per batch.
func timeOp(rounds, iters int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// threadCPUTime returns the calling thread's CPU time.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID; with a valid pointer it cannot fail on Linux.
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

var probeKey, probeSig, probeMsg = func() (ed25519.PublicKey, []byte, []byte) {
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	msg := make([]byte, 32)
	return pub, ed25519.Sign(priv, msg), msg
}()

// hostProbe measures how fast the host is right now: the thread CPU time
// of one ed25519 verification in microseconds, over a burst of 20 (about
// a millisecond, once per slice). The box this benchmark was written on
// wanders between 40 and 75 us over seconds to minutes, and every
// CPU-bound metric moves with it.
func hostProbe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 20
	start := threadCPUTime()
	for i := 0; i < n; i++ {
		ed25519.Verify(probeKey, probeMsg, probeSig)
	}
	return float64((threadCPUTime() - start).Nanoseconds()) / n / 1e3
}
