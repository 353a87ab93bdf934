package main

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe times a fixed piece of reference work, independent of
// the program under test, at quiet points of a serving workload's
// end-to-end run: after each set-up and between slices of the closed
// loop, when no request is in flight. The recording host is a shared
// virtual machine whose speed drifts by tens of percent over minutes,
// which no run length averages out. The serving workloads keep both
// processors busy with request handoffs between goroutines, and their
// times move with the probe's from run to run; the probe's median over
// a run measures the host's speed during that run, and normalise
// reports the run's times at a reference speed. quarterly-ingest and
// paper-grid are reported as measured: their times do not move with the
// probe's, and dividing by it made them less steady.
//
// The reference work has three parts: a cache-resident part
// (pseudo-random read-modify-write over 1 MiB) and a memory-bound part
// (a dependent walk over 32 MiB), each on two goroutines at once, one
// per processor the benchmark may use, and one 128-byte write with
// fsync in the run's output directory. The buffers are mapped outside
// the Go heap, so that they change neither the live heap nor the
// collector's work.
const (
	probeCacheWords = 1 << 17
	probeCacheSteps = 150_000
	probeDRAMWords  = 1 << 22
	probeDRAMSteps  = 5_000
	probeRounds     = 3
)

// refProbeUs is the probe's time (all three parts) the normalised
// timings are reported at: about its median on the recording host.
const refProbeUs = 3000.0

// hostProbe holds the probe's buffers, its fsync file and every timing
// it took, in microseconds.
type hostProbe struct {
	mem         []byte
	cache, dram [2][]uint64
	// pos is where each goroutine's walk stands; each round goes on
	// from there, so that no round finds the last one's reads in cache.
	pos [2]uint64
	f   *os.File
	rec []byte

	cacheUs, dramUs, syncUs []float64
}

// newHostProbe maps the probe's buffers and creates its fsync file in
// dir.
func newHostProbe(dir string) (*hostProbe, error) {
	const words = 2 * (probeCacheWords + probeDRAMWords)
	mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &hostProbe{mem: mem, rec: make([]byte, 128)}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	for i := range p.cache {
		p.cache[i], all = all[:probeCacheWords:probeCacheWords], all[probeCacheWords:]
		p.dram[i], all = all[:probeDRAMWords:probeDRAMWords], all[probeDRAMWords:]
		// One random cycle through every word (Sattolo's shuffle), so
		// that each read depends on the last.
		d := p.dram[i]
		for j := range d {
			d[j] = uint64(j)
		}
		x := uint64(0x2545F4914F6CDD1D) + uint64(i)
		for j := len(d) - 1; j > 0; j-- {
			x = xorshift(x)
			k := x % uint64(j)
			d[j], d[k] = d[k], d[j]
		}
	}
	if p.f, err = os.CreateTemp(dir, "probe-"); err != nil {
		p.close()
		return nil, err
	}
	p.measure() // touches every page once, untimed
	p.cacheUs, p.dramUs, p.syncUs = nil, nil, nil
	return p, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// probeSink keeps the reference work from being optimised away.
var probeSink uint64

// onBoth runs work on two goroutines at once and returns the wall time
// until both end.
func onBoth(work func(i int) uint64) time.Duration {
	var wg sync.WaitGroup
	var out [2]uint64
	start := time.Now()
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = work(i)
		}(i)
	}
	wg.Wait()
	d := time.Since(start)
	probeSink += out[0] ^ out[1]
	return d
}

// measure times the reference work probeRounds times. A nil probe does
// nothing.
func (p *hostProbe) measure() {
	if p == nil {
		return
	}
	for k := 0; k < probeRounds; k++ {
		p.cacheUs = append(p.cacheUs, us(onBoth(func(i int) uint64 {
			buf, x, acc := p.cache[i], uint64(0x9E3779B97F4A7C15), uint64(0)
			for s := 0; s < probeCacheSteps; s++ {
				x = xorshift(x)
				j := x & (probeCacheWords - 1)
				acc += buf[j] + x
				buf[j] = acc
			}
			return acc
		})))
		p.dramUs = append(p.dramUs, us(onBoth(func(i int) uint64 {
			buf, j := p.dram[i], p.pos[i]
			for s := 0; s < probeDRAMSteps; s++ {
				j = buf[j]
			}
			p.pos[i] = j
			return j
		})))
		start := time.Now()
		if _, err := p.f.WriteAt(p.rec, 0); err == nil {
			_ = p.f.Sync()
		}
		p.syncUs = append(p.syncUs, us(time.Since(start)))
	}
}

// us returns the probe's median time over the run, all parts summed.
func (p *hostProbe) us() float64 {
	return median(p.cacheUs) + median(p.dramUs) + median(p.syncUs)
}

// close removes the probe's fsync file and unmaps its buffers.
func (p *hostProbe) close() {
	if p == nil {
		return
	}
	if p.f != nil {
		p.f.Close()
		os.Remove(p.f.Name())
	}
	syscall.Munmap(p.mem)
}

// normalise reports the run's timings at the reference host speed:
// every metric in s or ms is multiplied, and every one in 1/s divided,
// by refProbeUs over the run's probe time. The measured values and the
// probe's timings go to the details.
func (r *run) normalise(p *hostProbe) {
	scale := refProbeUs / p.us()
	measured := map[string]metric{}
	for k, m := range r.metrics {
		measured[k] = m
		r.metrics[k] = normalised(m, scale)
	}
	r.note("measured", measured)
	r.note("host_probe", map[string]any{
		"rounds": len(p.cacheUs), "cache_us_p50": median(p.cacheUs), "dram_us_p50": median(p.dramUs),
		"sync_us_p50": median(p.syncUs), "scale": scale,
	})
}

// normalised returns m at the reference speed for a run whose probe
// ran scale times as fast as the reference (scale < 1 on a slow host).
func normalised(m metric, scale float64) metric {
	switch m.Unit {
	case "s", "ms":
		m.Value *= scale
	case "1/s":
		m.Value /= scale
	}
	return m
}
