package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for an even count); 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rankQuantile is the nearest-rank q-quantile: the smallest sample with at
// least q·n samples at or below it.
func rankQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// tailQuantile is the highest percentile that leaves at least ten samples
// beyond it, capped at p99 and floored at the median (a run with fewer than
// twenty samples has no tail above its median that ten samples support).
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return max(0.5, min(0.99, 1-10/float64(n)))
}

// opSummary is the median and the supported tail of per-op CPU times, and
// the throughput per CPU second.
type opSummary struct {
	n                   int
	p25, p50, p75, tail float64 // microseconds
	tailQ               float64
	perCPUSec           float64 // successful ops per second of CPU time
}

// summarize computes the op summary from per-op CPU times in
// microseconds; ok ops took cpu of process CPU time in all.
func summarize(cpuUs []float64, ok int, cpu time.Duration) opSummary {
	s := opSummary{
		n: len(cpuUs), p50: median(cpuUs), tailQ: tailQuantile(len(cpuUs)),
		p25: rankQuantile(cpuUs, 0.25), p75: rankQuantile(cpuUs, 0.75),
	}
	s.tail = max(s.p50, rankQuantile(cpuUs, s.tailQ))
	if cpu > 0 {
		s.perCPUSec = float64(ok) / cpu.Seconds()
	}
	return s
}

func (s opSummary) set(r *report, op string) {
	r.set("op_cpu_p50_us", s.p50)
	r.set("op_cpu_tail_us", s.tail)
	r.set("ops_per_cpu_s", s.perCPUSec)
	r.notef("op CPU time: %d samples of %s, p25 %.1f us, p50 %.1f us, p75 %.1f us, tail p%g %.1f us, %.4g ops per CPU second",
		s.n, op, s.p25, s.p50, s.p75, math.Round(s.tailQ*1000)/10, s.tail, s.perCPUSec)
}

// wallSummary reports the wall-clock op latencies of the untraced ops of a
// traced run. They are not gated: on a shared virtual machine they move
// with the host's load.
func wallSummary(r *report, wallUs []float64, ok int, wall time.Duration) {
	r.set("wall.op_p50_us", median(wallUs))
	r.set("wall.op_tail_us", max(median(wallUs), rankQuantile(wallUs, tailQuantile(len(wallUs)))))
	if wall > 0 {
		r.set("wall.ops_per_s", float64(ok)/wall.Seconds())
	}
}

// medianOf collects one named value from each traced op and returns the
// per-key medians.
type medianOf map[string][]float64

func (m medianOf) add(name string, v float64) { m[name] = append(m[name], v) }

func (m medianOf) setAll(r *report) {
	for name, vs := range m {
		r.set(name, median(vs))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's CPU time so far, user and system, summed over
// all its threads. The kernel leaves out time the hypervisor stole from the
// virtual CPU, so on a shared machine this reads the work done, not the
// neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the operating system and resets the
// resident-set high-water mark to the current resident set, so the peak
// read at the end covers only what follows: set-up and ops, not the
// untimed input preparation.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS resets the resident-set high-water mark to the current
// resident set, leaving the heap as it is.
func clearPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// hostCPU snapshots the machine-wide CPU time counters of /proc/stat: the
// time stolen from the virtual CPUs by the hypervisor, and the total.
func hostCPU() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) since
// the last reset. Each run is its own process, so the figure belongs to the
// workload alone.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
