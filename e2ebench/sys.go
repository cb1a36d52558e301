package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// rssSampler records the largest resident set the process reaches while
// it runs, reading /proc/self/statm every 20 ms. Sampling only the timed
// phase keeps the set-ups out of the figure.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	maxMiB  float64
	samples int
}

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return
	}
	s.samples++
	if mib := pages * float64(os.Getpagesize()) / (1 << 20); mib > s.maxMiB {
		s.maxMiB = mib
	}
}

// stop ends the sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return s.maxMiB
}

// conditions records what the machine gave the timed phase: the
// process's CPU time and the share of the machine's CPU time the
// hypervisor stole, so a slow run on a busy host can be told apart from
// a slow program.
type conditions struct {
	cpu0           time.Duration
	steal0, total0 float64
	CPUSeconds     float64 `json:"cpu_s"`
	StealPct       float64 `json:"steal_pct"`
}

func startConditions() *conditions {
	c := &conditions{cpu0: cpuNow()}
	c.steal0, c.total0 = stealTicks()
	return c
}

func (c *conditions) stop() {
	steal, total := stealTicks()
	c.CPUSeconds = (cpuNow() - c.cpu0).Seconds()
	if total > c.total0 {
		c.StealPct = (steal - c.steal0) / (total - c.total0) * 100
	}
}

// cpuNow is the CPU time all threads of the process have used so far
// (CLOCK_PROCESS_CPUTIME_ID, nanosecond resolution). The kernel leaves
// out time the hypervisor stole from the virtual CPU (paravirtual steal
// accounting) and time spent waiting for a CPU or for the disk, so a
// difference of two readings is the CPU an operation used - though a
// busy host still makes that CPU slower (see README).
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// stealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zero where it is unavailable).
func stealTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// allocBytes is the heap bytes the process has allocated so far
// (MemStats.TotalAlloc: exact, since reading it flushes every P's cache;
// runtime/metrics counts small allocations only when a cache is
// refilled). Unlike a time, the difference of two readings does not
// depend on the host.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// writtenBytes is the bytes the process has handed to write-like system
// calls so far (wchar in /proc/self/io: files and sockets alike, before
// any page cache). Like allocBytes it counts work, not time.
func writtenBytes() uint64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				panic(err)
			}
			return n
		}
	}
	panic("no wchar in /proc/self/io")
}
