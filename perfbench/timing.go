package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// timed is the host cost of one campaign.
type timed struct {
	wall, cpu, allocMB float64 // seconds, seconds, MB
	stolen             float64 // share of the machine's CPU time stolen meanwhile
}

// timeCampaign runs f from a settled heap and measures it.
func timeCampaign(f func() error) (timed, error) {
	settle()
	a0, c0, s0 := readUint(heapAllocs), cpuSeconds(), stealSeconds()
	t0 := time.Now()
	err := f()
	t := timed{wall: time.Since(t0).Seconds()}
	t.cpu = cpuSeconds() - c0
	t.allocMB = float64(readUint(heapAllocs)-a0) / 1e6
	t.stolen = (stealSeconds() - s0) / (t.wall * float64(runtime.NumCPU()))
	return t, err
}

// medianOf is the median of f over the campaigns ts.
func medianOf(ts []timed, f func(timed) float64) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return median(xs)
}

func wallOf(t timed) float64  { return t.wall }
func cpuOf(t timed) float64   { return t.cpu }
func allocOf(t timed) float64 { return t.allocMB }

// settle collects garbage twice before a timed campaign: the second cycle
// also empties the sync.Pool victim caches (encoding/json keeps its encode
// buffers there), so every campaign starts from the same heap state, as in
// a fresh process, and allocates the same bytes.
func settle() {
	runtime.GC()
	runtime.GC()
}

const (
	heapAllocs = "/gc/heap/allocs:bytes"
	gcCycles   = "/gc/cycles/total:gc-cycles"
)

// readUint reads one cumulative runtime metric.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the user and system CPU time of the process so far. A
// kernel that accounts steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING) leaves
// out the time the hypervisor stole from its virtual CPUs, so on a shared
// virtual machine CPU time stays steady where wall time does not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the CPU time the hypervisor has stolen from the whole
// machine so far, summed over its CPUs, from /proc/stat; 0 where that is
// unavailable. It is reported, not used: it tells a noisy run apart.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
