package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// recorder collects client-observed latencies per operation kind plus
// the attempted/failed tallies, from any number of client goroutines.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms
	attempted int
	failed    int
	reasons   map[string]int

	// loop and loopCPU are the wall and process CPU time of the
	// closed-loop phases; lines and replies count response lines for
	// server.resp_lines.
	loop    time.Duration
	loopCPU time.Duration
	lines   int
	replies int
	// first holds time-to-first-data-line samples (ms) per kind.
	first map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, reasons: map[string]int{}, first: map[string][]float64{}}
}

// observe records one completed operation; a non-empty why marks it
// failed (error, refusal or wrong answer) and keeps it out of the
// latency samples.
func (r *recorder) observe(kind string, d time.Duration, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if why != "" {
		r.failed++
		r.reasons[why]++
		return
	}
	r.lat[kind] = append(r.lat[kind], ms(d))
}

// firstLine records a successful reply's time to its first data line.
func (r *recorder) firstLine(kind string, d time.Duration) {
	r.mu.Lock()
	r.first[kind] = append(r.first[kind], ms(d))
	r.mu.Unlock()
}

func (r *recorder) firsts(kind string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.first[kind]...)
}

// lined records one reply's protocol line count (data plus status).
func (r *recorder) lined(n int) {
	r.mu.Lock()
	r.lines += n
	r.replies++
	r.mu.Unlock()
}

func (r *recorder) meanLines() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.lines) / math.Max(1, float64(r.replies))
}

// addLoop adds one closed-loop phase that began at wall time start and
// process CPU time cpu0.
func (r *recorder) addLoop(start time.Time, cpu0 time.Duration) {
	cpu := cpuTime() - cpu0
	r.mu.Lock()
	r.loop += time.Since(start)
	r.loopCPU += cpu
	r.mu.Unlock()
}

func (r *recorder) loopCPUSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loopCPU.Seconds()
}

func (r *recorder) loopSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loop.Seconds()
}

// merge folds o's samples and tallies into r.
func (r *recorder) merge(o *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range o.first {
		r.first[k] = append(r.first[k], v...)
	}
	for k, v := range o.reasons {
		r.reasons[k] += v
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.loop += o.loop
	r.loopCPU += o.loopCPU
	r.lines += o.lines
	r.replies += o.replies
}

// fail counts a failure found after the fact (e.g. a post-run check).
func (r *recorder) fail(why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.reasons[why]++
}

// samples returns the latencies of the named kinds, merged.
func (r *recorder) samples(kinds ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, k := range kinds {
		out = append(out, r.lat[k]...)
	}
	return out
}

// cpuTime is the process's CPU time so far, user plus system, over all
// its threads. The kernel charges a thread only for the time it ran, so
// time the host's hypervisor stole from the guest is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is one timed piece of work: its wall time and the process CPU
// time spent while it ran (ms).
type cost struct{ wall, cpu float64 }

// costs collects cost samples, e.g. the first queries of a cold phase.
type costs struct{ wall, cpu []float64 }

func (c *costs) add(s cost) {
	c.wall = append(c.wall, s.wall)
	c.cpu = append(c.cpu, s.cpu)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
