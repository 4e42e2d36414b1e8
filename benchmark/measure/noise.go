package measure

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/stat; it is 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// Counters is a snapshot of the process and host counters a pass is
// judged against: a pass slowed by hypervisor steal shows more steal, not
// more CPU time, so the two kinds of slowdown can be told apart.
type Counters struct {
	CPU        time.Duration // user + system time of this process
	Steal      time.Duration // host-wide steal time, all CPUs
	AllocBytes uint64        // cumulative heap allocation
	GCCycles   uint32
}

// Sample reads the counters now.
func Sample() Counters {
	var c Counters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.Steal, _ = readSteal()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.AllocBytes, c.GCCycles = ms.TotalAlloc, ms.NumGC
	return c
}

// Sub returns the counters accumulated between b and c.
func (c Counters) Sub(b Counters) Counters {
	return Counters{
		CPU: c.CPU - b.CPU, Steal: c.Steal - b.Steal,
		AllocBytes: c.AllocBytes - b.AllocBytes, GCCycles: c.GCCycles - b.GCCycles,
	}
}

// Add returns the sum of two accumulations.
func (c Counters) Add(d Counters) Counters {
	return Counters{
		CPU: c.CPU + d.CPU, Steal: c.Steal + d.Steal,
		AllocBytes: c.AllocBytes + d.AllocBytes, GCCycles: c.GCCycles + d.GCCycles,
	}
}

// String is the one-line form printed after every pass.
func (c Counters) String() string {
	return "cpu " + strconv.FormatFloat(c.CPU.Seconds(), 'f', 3, 64) + "s" +
		" steal " + strconv.FormatFloat(c.Steal.Seconds(), 'f', 3, 64) + "s" +
		" alloc " + strconv.FormatFloat(float64(c.AllocBytes)/(1<<20), 'f', 1, 64) + "MB" +
		" gc " + strconv.Itoa(int(c.GCCycles))
}

// readSteal returns the aggregate steal column of /proc/stat and the
// number of CPUs it sums over; both are zero where the file or the column
// does not exist.
func readSteal() (time.Duration, int) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	var steal time.Duration
	cpus := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cpu") {
			break // the per-CPU lines come first
		}
		fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
		if fields[0] != "cpu" {
			cpus++
			continue
		}
		if len(fields) < 9 {
			return 0, 0
		}
		ticks, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			return 0, 0
		}
		steal = time.Duration(ticks) * time.Second / clockTicks
	}
	return steal, cpus
}

// Stopwatch times an interval in wall time net of hypervisor steal: the
// wall time minus the host's steal over the interval divided by its CPU
// count. A virtual machine loses CPU time to other guests in bursts that
// stretch a pass by a third or more; on two CPUs kept busy, each loses
// about the per-CPU average steal, so subtracting it leaves what the
// program itself took. Phases that keep fewer CPUs busy see steal on
// those CPUs alone, which the average under-counts, so the net time errs
// towards the raw wall time. Where /proc/stat reports no steal, net time
// is wall time.
type Stopwatch struct {
	t0    time.Time
	steal time.Duration
}

// Start starts a stopwatch.
func Start() Stopwatch {
	steal, _ := readSteal()
	return Stopwatch{t0: time.Now(), steal: steal}
}

var stealCPUs = sync.OnceValue(func() int { _, n := readSteal(); return n })

// Elapsed returns the net and the raw wall time since Start.
func (s Stopwatch) Elapsed() (net, wall time.Duration) {
	wall = time.Since(s.t0)
	steal, _ := readSteal()
	n := stealCPUs()
	if n == 0 {
		return wall, wall
	}
	net = wall - (steal-s.steal)/time.Duration(n)
	if net < 0 { // steal is counted in 10 ms ticks; an op shorter than a tick can read below zero
		net = 0
	}
	return net, wall
}

// Net is the net time since Start; see Stopwatch.
func (s Stopwatch) Net() time.Duration {
	net, _ := s.Elapsed()
	return net
}

// PeakRSSMB is the process's peak resident set (VmHWM) in MB, or 0 where
// /proc/self/status does not report it.
func PeakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line) // VmHWM: <n> kB
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
