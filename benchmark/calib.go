package main

import (
	"crypto/aes"
	"crypto/cipher"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on is a 2-vCPU share of a larger
// machine, and its speed moves with the neighbours' load: the same work takes
// up to 40 % longer from one second to the next, and the mix drifts over
// minutes. A run's reps agree with each other, but runs a few minutes apart
// do not, and no statistic inside one run removes that. So every timed
// interval runs beside a host sampler: every samplePeriod, on a thread of its
// own, it runs a short fixed kernel of the benchmark's own and reads the
// kernel's thread CPU time. The kernel (integer mixing, AES block encryption
// and CRC-32 over a buffer that fits in L1, the kind of work the controller
// does per line) calls no repository code, allocates nothing and does the
// same work every time. It keeps to L1 so that the workload's own memory
// traffic, which a change under test may alter, hardly reaches it: it
// measures the core's speed. Thread CPU time leaves out the time the guest
// kernel ran other threads on that vCPU (the workload's own), but not the
// host's slowness, so the mean over an interval over the kernel's time on an
// idle reference core is the host's slowdown during that interval. The
// end-to-end times are reported at the reference speed: a throughput times
// the slowdown, a set-up time divided by it. The sampler costs about 1 % of
// one CPU. The raw values and slowdowns are in the run's samples line.

const (
	// samplerNominal is the kernel's CPU time on one idle core of the
	// reference host (2.1 GHz Xeon VM); it only sets the scale of the
	// reported values.
	samplerNominal = 0.001
	samplerRounds  = 32
	samplePeriod   = 100 * time.Millisecond
)

var (
	samplerOnce  sync.Once
	samplerBlock cipher.Block
	samplerBuf   [16 << 10]byte
	samplerSink  atomic.Uint64 // keeps the kernel's work observable
)

func samplerInit() {
	var err error
	if samplerBlock, err = aes.NewCipher([]byte("dewrite-sampler!")); err != nil {
		panic(err)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range samplerBuf {
		samplerBuf[i] = byte(next())
	}
}

// samplerKernel runs the kernel once and returns a value that depends on all
// of its work.
func samplerKernel() uint64 {
	var out [64]byte
	x := uint64(88172645463325252)
	var sum uint32
	for r := 0; r < samplerRounds; r++ {
		for off := 0; off < len(samplerBuf); off += 64 {
			for i := 0; i < 48; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			for b := 0; b < 64; b += 16 {
				samplerBlock.Encrypt(out[b:b+16], samplerBuf[off+b:off+b+16])
			}
			out[0] ^= byte(x)
			sum = crc32.Update(sum, crc32.IEEETable, out[:])
		}
	}
	return x + uint64(sum)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSampler samples the host's speed while an interval runs.
type hostSampler struct {
	stop chan struct{}
	done chan float64 // the mean kernel CPU time, once stopped
}

// startSampler starts sampling; the first kernel runs at once, so even a
// short interval has a sample.
func startSampler() *hostSampler {
	samplerOnce.Do(samplerInit)
	s := &hostSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		var sum time.Duration
		var n int
		for {
			c0 := threadCPU()
			samplerSink.Add(samplerKernel())
			sum += threadCPU() - c0
			n++
			select {
			case <-s.stop:
				s.done <- sum.Seconds() / float64(n)
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// slowdown stops the sampler and returns the host's slowdown over the
// interval it sampled: the kernel's mean CPU time over samplerNominal.
func (s *hostSampler) slowdown() float64 {
	close(s.stop)
	return <-s.done / samplerNominal
}
