package main

import (
	"sync"
	"time"
)

// Host-speed normalisation. Shared hosts change speed by up to 2x within
// seconds (contention for caches and cores from other tenants), which no
// amount of in-run repetition averages away. The rates and set-up time are
// therefore paired with a calibration kernel timed right next to them and
// expressed in reference-host seconds: a second on a host where the kernel
// takes calRef. The kernel is a small register-machine interpreter with
// switch dispatch over a 256 KiB data array, the shape of the emulator's
// own hot loop, so host contention slows both alike; it lives in the
// benchmark, so no change to the program under test moves it.

// calRef is the kernel's slice time on the reference host: a quiet
// 2-vCPU x86-64 container.
const calRef = 1200 * time.Microsecond

const (
	calIters = 500_000
	calWords = 1 << 16
	calProg  = 4096
)

var calProgram = func() []uint32 {
	p := make([]uint32, calProg)
	x := uint32(7)
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = x
	}
	return p
}()

// calSink keeps the kernel's result live.
var calSink uint32

func calKernel(mem []uint32) uint32 {
	var r [16]uint32
	pc := 0
	for i := 0; i < calIters; i++ {
		ins := calProgram[pc]
		a, b, c := (ins>>4)&15, (ins>>8)&15, (ins>>12)&15
		switch ins & 15 {
		case 0, 1, 2:
			r[a] = r[b] + r[c]
		case 3, 4:
			r[a] = r[b] ^ (r[c] << 3)
		case 5, 6:
			r[a] = mem[(r[b]+ins>>16)&(calWords-1)]
		case 7, 8:
			mem[(r[b]+ins>>16)&(calWords-1)] = r[c]
		case 9:
			if r[a]&1 == 0 {
				pc = int(r[b]) & (calProg - 1)
				continue
			}
		case 10, 11:
			r[a] = r[b]*r[c] + 1
		default:
			r[a] = r[b] - r[c]
		}
		pc = (pc + 1) & (calProg - 1)
	}
	return r[0]
}

// calibrator times kernel slices on a fixed set of goroutine-private
// memories.
type calibrator struct {
	mems [][]uint32
}

func newCalibrator(parallel int) *calibrator {
	c := &calibrator{}
	for i := 0; i < parallel; i++ {
		c.mems = append(c.mems, make([]uint32, calWords))
	}
	return c
}

// slowness runs the kernel slices times on every goroutine at once and
// returns the median slice time over calRef: 1 on the reference host, 2
// on a host running at half its speed.
func (c *calibrator) slowness(slices int) float64 {
	var mu sync.Mutex
	var times []float64
	var wg sync.WaitGroup
	for _, mem := range c.mems {
		wg.Add(1)
		go func(mem []uint32) {
			defer wg.Done()
			var local []float64
			var sink uint32
			for s := 0; s < slices; s++ {
				start := time.Now()
				sink += calKernel(mem)
				local = append(local, float64(time.Since(start)))
			}
			mu.Lock()
			times = append(times, local...)
			calSink += sink
			mu.Unlock()
		}(mem)
	}
	wg.Wait()
	return median(times) / float64(calRef)
}
