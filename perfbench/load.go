package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request of a load phase. due is when the schedule said to
// send it (for the closed loop, when it was sent); all latencies count from
// due, so a stall also charges the requests queued behind it.
type sample struct {
	due, start, first, end time.Time
	ok                     bool // completed and passed the inline oracle
	wrong                  bool // completed with a plan the oracle rejects
	// idle is set when a connection was free before the request was due,
	// so any lateness of its send is the generator's own.
	idle bool
}

func (s sample) latency() time.Duration   { return s.end.Sub(s.due) }
func (s sample) firstSlot() time.Duration { return s.first.Sub(s.due) }
func (s sample) late() time.Duration      { return s.start.Sub(s.due) }

// sendFunc sends the i-th request of a phase and classifies its reply.
type sendFunc func(i int) reply

// openLoop sends n requests on a fixed schedule, request i due at
// start + i·interval, with at most workers in flight: a worker takes the
// next due request as soon as it is free, so requests run in due order and
// a slow reply delays (and is charged to) the requests behind it.
func openLoop(start time.Time, n int, interval time.Duration, workers int, send sendFunc) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				d := time.Until(due)
				if d > 0 {
					time.Sleep(d)
				}
				out[i] = record(due, time.Now(), send(i))
				out[i].idle = d > 0
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps workers requests in flight until the deadline passes or
// the n inputs run out; each request is due when it is sent.
func closedLoop(deadline time.Time, n, workers int, send sendFunc) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				now := time.Now()
				out[i] = record(now, now, send(i))
			}
		}()
	}
	wg.Wait()
	sent := min(int(next.Load()), n)
	// Every index below sent was taken by a worker and completed.
	return out[:sent]
}

func record(due, start time.Time, r reply) sample {
	s := sample{due: due, start: start, first: r.first, end: r.end, ok: r.err == nil}
	s.wrong = r.err != nil && isWrong(r.err)
	if s.first.IsZero() {
		s.first = s.end
	}
	return s
}

// minBeyond is how many samples a reported percentile keeps above it.
const minBeyond = 10

// percentile returns the q-quantile of sorted by nearest rank, lowered
// when needed so that at least minBeyond samples lie above the reported
// rank: with too few samples for the asked tail, it reports the highest
// percentile the sample supports.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = min(rank, n-minBeyond)
	rank = max(rank, 1)
	return sorted[rank-1]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// goodput is the successful requests of a closed-loop phase that completed
// within limit, per second of the phase's elapsed time.
func goodput(samples []sample, elapsed, limit time.Duration) float64 {
	good := 0
	for _, s := range samples {
		if s.ok && s.latency() <= limit {
			good++
		}
	}
	return float64(good) / elapsed.Seconds()
}

// phaseStats summarizes one load phase.
type phaseStats struct {
	attempted, failed, wrong int
	latency, firstSlot       []float64 // sorted ms, of successful requests
	// late is how late the generator sent requests that had a connection
	// free when due (sorted ms). A request sent late because both
	// connections were busy waits on the program, and its latency counts
	// that wait.
	late []float64
}

func summarize(samples []sample) phaseStats {
	st := phaseStats{attempted: len(samples)}
	var lat, first, late []time.Duration
	for _, s := range samples {
		if s.idle {
			late = append(late, s.late())
		}
		if !s.ok {
			st.failed++
			if s.wrong {
				st.wrong++
			}
			continue
		}
		lat = append(lat, s.latency())
		first = append(first, s.firstSlot())
	}
	st.latency, st.firstSlot, st.late = sortedMs(lat), sortedMs(first), sortedMs(late)
	return st
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// onSchedule reports a run invalid when its generator fell behind the
// open-loop schedule: when it sent requests that had a free connection
// later than limit at p99, the phase did not offer the workload's rate.
func onSchedule(open phaseStats, limit time.Duration) error {
	if len(open.late) == 0 {
		return nil // every request waited on a busy connection
	}
	late := percentile(open.late, 0.99)
	if late > float64(limit)/float64(time.Millisecond) {
		return fmt.Errorf("invalid run: the generator fell behind its schedule, sending %.1f ms late at p99 (limit %v)", late, limit)
	}
	return nil
}
