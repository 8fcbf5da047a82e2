package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gauge samples the process at a fixed period while a timed section runs:
// CPU time per unit of work in each window.
type gauge struct {
	work func() float64 // cumulative work completed
	stop chan struct{}
	done chan struct{}

	cpuUsPerWork []float64
}

func startGauge(every time.Duration, work func() float64) *gauge {
	g := &gauge{work: work, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		cpu, w := processCPU(), work()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			cpu1, w1 := processCPU(), work()
			if w1 > w {
				g.cpuUsPerWork = append(g.cpuUsPerWork, float64((cpu1-cpu).Microseconds())/(w1-w))
			}
			cpu, w = cpu1, w1
		}
	}()
	return g
}

// finish stops the sampling and returns what it took.
func (g *gauge) finish() (cpuUsPerWork []float64) {
	close(g.stop)
	<-g.done
	return g.cpuUsPerWork
}

// residentMB returns the process's current resident set in MiB, or 0 when
// /proc does not say.
func residentMB() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(blob)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(fields[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssEvery is how often the resident set is read while a timed section
// runs. A transient that moves the peak by a MiB takes longer than this to
// allocate and touch; 50 reads a second cost the process ~0.1% of a core.
const rssEvery = 20 * time.Millisecond

// watchPeakRSS follows the resident set until stop is called, which returns
// the largest value seen.
func watchPeakRSS() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	peak := residentMB()
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if r := residentMB(); r > peak {
				peak = r
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		if r := residentMB(); r > peak {
			peak = r
		}
		return peak
	}
}
